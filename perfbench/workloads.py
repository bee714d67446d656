"""The three benchmark workloads: their inputs, CLI commands and checks.

Each workload writes its seeded inputs into a work directory and names the
``neva`` CLI commands (argument lists for ``neva.cli.run_command``) that make
up one execution, and how many fixed-point solves that execution completes.
``check`` reads the outputs of one execution, outside any timed region, and
returns how many of those solves failed: a solve fails when it did not
converge, when it was a dropped Monte Carlo sample, when its command exited
non-zero, or when it misses the workload's correctness check.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

# Agreement required between the program and an independent oracle, as a
# share of the largest book equity: 1000x the solver's default tolerance.
ORACLE_TOLERANCE = 1e-7


@dataclass(frozen=True)
class Verdict:
    failed: int
    problems: tuple = ()


def _write(path: Path, document: dict) -> str:
    path.write_text(inputs.dumps(document), encoding="utf-8")
    return str(path)


def _columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = list(zip(*reader))
    return dict(zip(header, columns))


def _floats(column) -> np.ndarray:
    return np.array(column, dtype=float)


def en_clearing_equities(sheets: inputs.Sheets, asset_scale) -> np.ndarray:
    """Greatest Eisenberg-Noe clearing equities, one column per external
    asset multiplier, by monotone iteration in payment space from full
    payment: ``p <- min((cash + Pi^T p)+, pbar)``."""
    asset_scale = np.asarray(asset_scale, dtype=float)
    obligations = sheets.obligations()
    relative = sheets.claim_matrix(sheets.amounts / obligations[sheets.debtors])
    cash = (np.outer(sheets.external_assets, asset_scale)
            - sheets.external_liabilities[:, None])
    cap = obligations[:, None]
    payments = np.repeat(cap, len(asset_scale), axis=1)
    tolerance = 1e-14 * sheets.scale()
    for _ in range(100_000):
        updated = np.clip(cash + relative @ payments, 0.0, cap)
        step = float(np.max(np.abs(updated - payments)))
        payments = updated
        if step <= tolerance:
            return cash + relative @ payments - cap
    raise RuntimeError("payment-space oracle did not converge")


class Workload:
    """Inputs, commands and correctness check of one workload."""

    name = ""
    solves = 0

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.commands = []
        self.outputs = []
        self.setup_inputs = ()  # (network, scenario) read by the setup probe

    def _command(self, command: str, network: str, scenario: str,
                 output: str) -> list:
        path = self.workdir / output
        self.outputs.append(path)
        return [command, "--network", network, "--scenario", scenario,
                "--output", str(path)]

    def check(self, statuses: list, run) -> Verdict:
        """Failed solves of the execution whose exit codes are ``statuses``;
        ``run`` executes one more CLI command when a check needs it."""
        raise NotImplementedError


class StressCascade(Workload):
    name = "stress_en_cascade"
    banks, points, top = 500, 31, 0.3
    solves = points

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.sheets = inputs.random_network(self.banks, seed)
        network = _write(workdir / "network.json", self.sheets.document())
        scenario = _write(workdir / "stress.json",
                          inputs.stress_scenario(self.points, self.top))
        self.commands = [self._command("stress", network, scenario, "stress.csv")]
        self.setup_inputs = (network, scenario)

    def check(self, statuses, run):
        if statuses != [0]:
            return Verdict(self.solves, (f"exit status {statuses}",))
        out = _columns(self.outputs[0])
        n, points = self.banks, self.points
        alphas = _floats(out["alpha"]).reshape(points, n)[:, 0]
        delta = _floats(out["delta_equity"]).reshape(points, n)
        effect = _floats(out["network_effect"]).reshape(points, n)[:, 0]
        if list(out["bank_id"][:n]) != self.sheets.ids:
            return Verdict(self.solves, ("bank order in the output",))
        oracle = en_clearing_equities(self.sheets, 1.0 - alphas).T
        solution = self.sheets.book_equity() - delta
        obligations = self.sheets.obligations()
        unpaid = np.clip(-oracle.T, 0.0, obligations[:, None])  # pbar - p
        oracle_effect = unpaid.sum(axis=0) / obligations.sum()
        tolerance = ORACLE_TOLERANCE * self.sheets.scale()
        bad = np.max(np.abs(solution - oracle), axis=1) > tolerance
        bad |= np.abs(effect - oracle_effect) > ORACLE_TOLERANCE
        bad[1:] |= effect[1:] < effect[:-1] - 1e-12
        problems = tuple(f"alpha={a:.3f} misses the oracle or is not monotone"
                         for a in alphas[bad])
        return Verdict(int(bad.sum()), problems)


class LimitGbmMaturity(Workload):
    name = "limit_gbm_maturity"
    banks, sigma, beta, maturities = 300, 0.3, 1.0, 20
    solves = maturities + 1  # plus the at-maturity reference

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.sheets = inputs.random_network(self.banks, seed)
        self.taus = np.geomspace(10.0, 0.01, self.maturities)
        network = _write(workdir / "network.json", self.sheets.document())
        scenario = _write(workdir / "limit.json", inputs.limit_maturity_scenario(
            self.sigma, self.beta, self.taus))
        self.commands = [self._command("limit-maturity", network, scenario,
                                       "limit.csv")]
        self.setup_inputs = (network, scenario)

    def check(self, statuses, run):
        from neva import FinancialNetwork, ValuationSpec
        if statuses != [0]:
            return Verdict(self.solves, (f"exit status {statuses}",))
        out = _columns(self.outputs[0])
        shape = (self.maturities, self.banks)
        equities = _floats(out["equity"]).reshape(shape)
        deviations = _floats(out["deviation"]).reshape(shape)[:, 0]
        sheets = self.sheets
        net = FinancialNetwork(sheets.ids, sheets.external_assets,
                               sheets.external_liabilities,
                               sheets.dense_liabilities())
        epsilon = 1e-10 * sheets.scale()
        bad = np.zeros(self.solves, dtype=bool)  # last entry: the reference
        for k, (tau, equity) in enumerate(zip(self.taus, equities)):
            bound = ValuationSpec.exante_en_gbm(self.sigma, tau, self.beta).bind(net)
            bad[k] = np.max(np.abs(bound.equity_map(equity) - equity)) > epsilon
        reference = en_clearing_equities(sheets, [1.0])[:, 0]
        expected = np.max(np.abs(equities - reference), axis=1)
        tolerance = ORACLE_TOLERANCE * sheets.scale()
        bad[-1] = np.max(np.abs(deviations - expected)) > tolerance
        problems = [f"tau={t:.4g} is not a fixed point within epsilon"
                    for t in self.taus[bad[:-1]]]
        if bad[-1]:
            problems.append("deviations disagree with the oracle reference")
        if not deviations[-1] < deviations[0]:
            bad[[0, -2]] = True
            problems.append("deviation does not shrink towards maturity")
        return Verdict(int(bad.sum()), tuple(problems))


class McGlobal(Workload):
    name = "mc_global"
    # Four networks with a quarter of the samples each: how long the batched
    # clearing iterates depends on the network, so one network made the
    # cost of an execution vary by +-7% between seeds.
    banks, networks, sigma, tau, beta, samples = 50, 4, 0.2, 1.0, 1.0, 750
    solves = networks * samples

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.scale = 1.0
        for k in range(self.networks):
            sheets = inputs.random_network(self.banks, [seed, k])
            self.scale = max(self.scale, sheets.scale())
            network = _write(workdir / f"network{k}.json", sheets.document())
            scenario = _write(workdir / f"mc{k}.json", inputs.mc_global_scenario(
                self.sigma, self.tau, self.beta, self.samples, seed))
            self.commands.append(self._command("mc-global", network, scenario,
                                               f"mc{k}.csv"))
            if not self.setup_inputs:
                self.setup_inputs = (network, scenario)

    def _estimate(self, path):
        out = _columns(path)
        dropped = int(out["dropped"][0])
        if int(out["samples"][0]) != self.samples:
            dropped = self.samples
        return _floats(out["mean_equity"]), _floats(out["std_error"]), dropped

    def check(self, statuses, run):
        if statuses != [0] * self.networks:
            return Verdict(self.solves, (f"exit status {statuses}",))
        failed, problems = 0, []
        for k, (command, output) in enumerate(zip(self.commands, self.outputs)):
            mean, std_error, dropped = self._estimate(output)
            other = self.workdir / f"mc{k}-other-seed.csv"
            status = run(command[:-1] + [str(other), "--seed", str(self.seed + 1)])
            if status != 0:
                failed += self.samples
                problems.append(f"network {k}: second-seed exit status {status}")
                continue
            mean2, std_error2, _ = self._estimate(other)
            slack = 5.0 * np.hypot(std_error, std_error2) + 1e-12 * self.scale
            if np.any(np.abs(mean - mean2) > slack):
                failed += self.samples
                problems.append(f"network {k}: mean disagrees with a second "
                                "seed beyond 5 SE")
                continue
            failed += dropped
            if dropped:
                problems.append(f"network {k}: {dropped} dropped samples")
        return Verdict(failed, tuple(problems))


WORKLOADS = {w.name: w for w in (StressCascade, LimitGbmMaturity, McGlobal)}
