"""Outside-in tracing of the ``neva`` layers.

``Tracer.install`` wraps the public functions of each module, and the
``numpy.random`` generator constructors, in timing spans recorded from these
files; no program file changes.  A span's self time is its duration minus
the durations of the traced spans it directly contains.  ``uninstall``
restores every original, so an untraced run executes none of this code.
"""
from __future__ import annotations

import functools
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> [(module, attribute path)]; every binding of the same
# function object in a neva module is replaced, so ``from x import f`` sites
# are traced too.
TARGETS = {
    "cli.run_command": [("neva.cli", "run_command")],
    "files.load_network": [("neva.files", "load_network")],
    "files.load_scenario": [("neva.files", "load_scenario")],
    "files.serialize": [("neva.files", "serialize_results")],
    "files.write": [("neva.files", "write_output")],
    "network.apply_shock": [("neva.network", "FinancialNetwork.apply_shock")],
    "valuation.bind": [("neva.valuation", "ValuationSpec.bind")],
    "valuation.equity_map": [("neva.valuation", "BoundValuation.equity_map")],
    "valuation.factor": [("neva.valuation", "BoundValuation.borrower_factors"),
                         ("neva.valuation", "BoundValuation.lender_factors"),
                         ("neva.valuation", "BoundValuation.external_factors")],
    "valuation.edge_discounts": [("neva.valuation", "BoundValuation.edge_discounts")],
    "solver.solve": [("neva.solver", "solve"),
                     ("neva.solver", "greatest_solution"),
                     ("neva.solver", "least_solution")],
    "analysis.stress": [("neva.analysis", "stress_test")],
    "analysis.limit": [("neva.analysis", "maturity_limit_experiment")],
    "analysis.mc": [("neva.analysis", "monte_carlo_global_valuation")],
}
RNG_SPAN = "analysis.mc_rng"


class Stat:
    __slots__ = ("calls", "total", "self_time", "outer_calls", "outer")

    def __init__(self):
        self.calls = self.outer_calls = 0
        self.total = self.self_time = self.outer = 0.0


class Tracer:
    """Span statistics per name, plus what the spans returned that the
    per-layer metrics need (solve reports, output sizes, claim storage)."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.reports = []
        self.output_bytes = 0
        self.claims_bytes = 0
        self._stack = []  # [name, child time] of the open spans
        self._open = defaultdict(int)  # open spans per name
        self._restore = []

    def _enter(self, name):
        self._stack.append([name, 0.0])
        self._open[name] += 1
        return perf_counter()

    def _exit(self, name, start) -> bool:
        """Close the innermost span; True when no same-name span is open."""
        duration = perf_counter() - start
        _, children = self._stack.pop()
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - children
        outer = self._open[name] == 0
        if outer:
            stat.outer_calls += 1
            stat.outer += duration
        return outer

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                outer = self._exit(name, start)
            self._observe(name, result, outer)
            return result
        return traced

    def _observe(self, name, result, outer):
        if name == "solver.solve" and outer:
            self.reports.append((int(result.iterations), bool(result.converged)))
        elif name == "files.serialize":
            self.output_bytes += len(result)
        elif name == "files.load_network":
            self.claims_bytes = max(self.claims_bytes,
                                    _nbytes(result.interbank_liabilities))

    def _timed_seed_sequence(self, base):
        tracer = self

        class TimedSeedSequence(base):
            def __init__(self, *args, **kwargs):
                start = tracer._enter(RNG_SPAN)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._exit(RNG_SPAN, start)

            def spawn(self, n_children):
                start = tracer._enter(RNG_SPAN)
                try:
                    return super().spawn(n_children)
                finally:
                    tracer._exit(RNG_SPAN, start)

        return TimedSeedSequence

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "neva" or name.startswith("neva.")]
        for span, targets in TARGETS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attribute)
                wrapped = self._wrap(span, original)
                if parents:
                    self._set(owner, attribute, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        self._set(np.random, "default_rng", self._wrap(RNG_SPAN, np.random.default_rng))
        self._set(np.random, "SeedSequence",
                  self._timed_seed_sequence(np.random.SeedSequence))

    def _set(self, owner, attribute, value):
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def layer_metrics(self, samples: int, banks: int) -> dict:
        """Per-layer metrics of one execution, averaged over ``samples``."""
        s = self.stats
        per = 1.0 / samples
        equity_map = s["valuation.equity_map"].total
        factor_calls = s["valuation.factor"].calls
        sweeps = [iterations for iterations, _ in self.reports]
        solves = len(sweeps)
        metrics = {
            "files.load_network_s": s["files.load_network"].total * per,
            "files.load_scenario_s": s["files.load_scenario"].total * per,
            "files.serialize_s": s["files.serialize"].total * per,
            "files.output_bytes": self.output_bytes * per,
            "files.write_s": s["files.write"].total * per,
            "network.apply_shock_calls": s["network.apply_shock"].calls * per,
            "network.apply_shock_s": s["network.apply_shock"].total * per,
            "network.claims_bytes": self.claims_bytes,
            "valuation.bind_calls": s["valuation.bind"].calls * per,
            "valuation.bind_s": s["valuation.bind"].total * per,
            "valuation.equity_map_calls": s["valuation.equity_map"].calls * per,
            "valuation.equity_map_s": equity_map * per,
            "valuation.factor_calls": factor_calls * per,
            "valuation.factor_s": s["valuation.factor"].total * per,
            "valuation.factor_us_per_bank": (
                1e6 * s["valuation.factor"].total / (factor_calls * banks)
                if factor_calls else 0.0),
            "valuation.matvec_s": s["valuation.equity_map"].self_time * per,
            "valuation.edge_discounts_s": s["valuation.edge_discounts"].total * per,
            "solver.solves": solves * per,
            "solver.sweeps": sum(sweeps) * per,
            "solver.sweeps_per_solve": sum(sweeps) / solves if solves else 0.0,
            "solver.sweeps_max": max(sweeps, default=0),
            "solver.unconverged": sum(not ok for _, ok in self.reports) * per,
            "solver.solve_s": s["solver.solve"].outer * per,
            "solver.self_s": s["solver.solve"].self_time * per,
            "solver.sweep_ms": 1e3 * equity_map / sum(sweeps) if sweeps else 0.0,
            "analysis.stress_s": s["analysis.stress"].total * per,
            "analysis.stress_self_s": s["analysis.stress"].self_time * per,
            "analysis.limit_s": s["analysis.limit"].total * per,
            "analysis.mc_s": s["analysis.mc"].total * per,
            "analysis.mc_rng_calls": s[RNG_SPAN].outer_calls * per,
            "analysis.mc_rng_s": s[RNG_SPAN].outer * per,
            "cli.overhead_s": s["cli.run_command"].self_time * per,
        }
        return metrics


def _nbytes(storage) -> int:
    """Bytes held by a dense array or a scipy sparse matrix."""
    if hasattr(storage, "indptr"):
        return int(storage.data.nbytes + storage.indices.nbytes
                   + storage.indptr.nbytes)
    return int(storage.nbytes)


def import_times(env: dict, probes: int) -> dict:
    """``import.neva_s`` and ``import.scipy_special_s``: cumulative entries
    of ``python -X importtime -c "import neva"``, median of fresh processes."""
    neva, special = [], []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import neva"],
                              env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        neva.append(cumulative["neva"] * 1e-6)
        special.append(cumulative.get("scipy.special", 0) * 1e-6)
    return {"import.neva_s": float(np.median(neva)),
            "import.scipy_special_s": float(np.median(special))}
