"""Fixed points of the self-consistent equity map.

The map is monotone and sends the box ``[m, M]`` (all-liabilities-lost to
face-value equities) into itself, so its fixed points form a complete
lattice.  Plain fixed-point iteration started from the face values ``M``
decreases monotonically to the greatest solution; started from the lower
bounds ``m`` it increases towards the least solution provided the valuation
functions are continuous from below.  Comparing the two brackets decides
uniqueness up to the solve tolerance.  On an acyclic claim graph, with
unit external valuation and borrower-only interbank factors, the iteration
from the face values settles exactly within claim depth + 1 sweeps: sources
are exact at once and each sweep settles the next depth layer.  The tests
check that bound, with an exact stop (``SolveConfig(epsilon=5e-324)``).
"""
from __future__ import annotations

from numbers import Integral, Real
from typing import Optional, Union

import numpy as np

from .network import FinancialNetwork, Record, _is_number
from .valuation import BoundValuation, ValuationSpec, en_interbank

__all__ = [
    "SolveConfig",
    "SolveReport",
    "UniquenessReport",
    "solve",
    "greatest_solution",
    "least_solution",
    "uniqueness_check",
    "en_clearing_payments",
]

FACE_VALUES = "face_values"
LOWER_BOUNDS = "lower_bounds"
BIAS_SHARE = 0.05  # of a bank's standard error: what early stops may add to its Monte Carlo mean


def _scaled_epsilon(book_equity: np.ndarray, obligations: np.ndarray, share: float = 1e-10):
    """``share * max|book equity|``, one per row of a stack; where that is 0,
    ``share * max(obligations)``, and where that is 0 too, 5e-324.  No
    absolute floor, so a change of unit by ``2**k`` scales it exactly."""
    scale = np.max(np.abs(book_equity), axis=-1)
    scale = np.where(scale > 0, scale, np.max(obligations))
    return np.maximum(share * scale, 5e-324)


class SolveConfig(Record, eq=True):
    """Iteration controls; ``epsilon=None`` selects the scale-aware default."""

    epsilon: Optional[float] = None
    max_iterations: int = 100_000

    def __post_init__(self):
        if self.epsilon is not None and not (
                _is_number(self.epsilon, Real) and 0 < self.epsilon < np.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (_is_number(self.max_iterations, Integral) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be at least 1 and whole, "
                             f"got {self.max_iterations!r}")


class SolveReport(Record):
    """Outcome of one fixed-point iteration run; ``residual`` is the final
    sup-norm step.  Iterates fall from face values and rise from the lower
    bounds under every feasible valuation function: the tests check that,
    not each sweep.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    residual: float
    kind: str  # "greatest" | "least" | "custom"
    epsilon: float
    warnings: tuple = ()

    @property
    def defaulted(self) -> np.ndarray:
        """Banks whose solved equity is negative."""
        return self.solution < 0


class UniquenessReport(Record):
    """Bracket comparison; ``unique`` is None when either solve failed."""

    unique: Optional[bool]
    gap: float
    greatest: SolveReport
    least: SolveReport


def _iterate(stack: BoundValuation, start: np.ndarray, epsilon, max_iterations: int) -> tuple:
    """Fixed-point iteration of every row of the ``(batch, n)`` stack ``start``
    under the equity map of ``stack``, a ``BoundValuation.stack()``.

    A row retires once its sup-norm step is at most its ``epsilon`` or at its ``max_iterations``
    sweeps (each scalar or per row; caps of at least 1); the active rows stay compact, in order,
    and so does the stack, which ``keep`` lays out anew, so the map is never evaluated on zero
    rows.  Returns per row the last iterate, sweeps and last step.
    """
    solutions = np.array(start, dtype=float)
    active = np.arange(len(solutions))
    sweeps = np.array(np.broadcast_to(max_iterations, active.shape))  # a row's cap until it retires
    least = int(sweeps.min(initial=0))  # before this sweep, no row is at its cap
    residuals = np.full(active.shape, np.inf)
    tolerance = np.broadcast_to(epsilon, active.shape)  # one per row
    offsets = active * solutions.shape[1]  # of the rows in the flat stack
    equities, steps = solutions, residuals
    for sweep in range(1, int(sweeps.max(initial=0)) + 1):
        if not active.size:
            break
        updated = stack.equity_map(equities)
        # the last iterate is not read again: its buffer takes the change
        change = np.subtract(updated, equities, out=equities)
        # the row maxima as segments of the flat stack: max(axis=1) pays per row
        steps = np.maximum.reduceat(np.abs(change, out=change).ravel(),
                                    offsets[:len(active)])
        equities = updated
        done = steps <= tolerance
        if sweep >= least:
            done |= sweeps[active] <= sweep
        if done.any():  # the rows left move up, in order, and the stack keeps them
            gone, kept = done.nonzero()[0], (~done).nonzero()[0]
            retired = active[gone]
            solutions[retired] = equities[gone]
            residuals[retired], sweeps[retired] = steps[gone], sweep
            active, equities, steps = active[kept], equities.take(kept, axis=0), steps[kept]
            tolerance = tolerance[kept]
            if kept.size:
                stack = stack.keep(kept)
    solutions[active], residuals[active] = equities, steps
    return solutions, sweeps, residuals


def _solve(bound: BoundValuation, start: np.ndarray, config: Optional[SolveConfig]) -> tuple:
    """The one fixed-point solve of the stack ``start``: per row the solution
    clamped into ``[m, M]``, sweeps, last step, tolerance (without a configured
    epsilon, scaled with the row's own book equity) and whether it converged:
    the one verdict every caller reads."""
    config = config or SolveConfig()
    epsilon = config.epsilon or _scaled_epsilon(bound.book_equity,
                                                bound.net.total_obligations())
    solutions, sweeps, residuals = _iterate(bound.stack(), start, epsilon, config.max_iterations)
    solutions = np.clip(solutions, bound.net.equity_lower_bound(), bound.book_equity)
    epsilon = np.broadcast_to(epsilon, residuals.shape)
    return solutions, sweeps, residuals, epsilon, residuals <= epsilon


def _certify(bound: BoundValuation, config: Optional[SolveConfig]) -> tuple:
    """Greatest solve of each row of the Monte Carlo stack ``bound`` in two steps (README,
    *Stacked solves*): every row to its first step, where ``Φ(x) >= x`` may certify a bound,
    then the rows that do not certify on to the default tolerance ε; only if some bank's bias
    bound then exceeds ``BIAS_SHARE`` of its SE do the certified rows go on to ε too.  The
    probe runs in place on the stack, where a row that did not meet the first step keeps its
    iterate.  Per row: the solution in [m, M], bound (0 if uncertified), converged, certified;
    then per bank the mean, SE and bias bound, and the first step's share of the median scale."""
    config, book = config or SolveConfig(), bound.book_equity
    (count, n), obligations = book.shape, bound.net.total_obligations()
    scale, budget = _scaled_epsilon(book, obligations, 1.0), config.max_iterations
    epsilon = np.broadcast_to(config.epsilon or _scaled_epsilon(book, obligations), count)
    se = book.std(0, ddof=1) / np.sqrt(count) if count > 1 and not config.epsilon else np.zeros(n)
    least = BIAS_SHARE * min(se[se > 0], default=0.0)  # Harris: no equity SE is below min(se)
    first = np.clip(least, 1e-6 * scale, 1e-3 * scale) if least else epsilon  # floor: README
    step, stack = np.maximum(first, epsilon), bound.stack()  # at ε: a plain solve
    solutions, used, steps = _iterate(stack, book, step, budget)  # every row
    settled, certified, bounds = steps <= epsilon, np.zeros(count, bool), np.zeros_like(book)

    def onward(rows):  # rows ``rows``, if any, on to ε with the sweeps they have left
        if rows.size:
            solutions[rows], _, steps = _iterate(stack.keep(rows), solutions[rows], epsilon[rows],
                                                 budget - used[rows])
            settled[rows] |= steps <= epsilon[rows]

    def estimates():  # per bank over the kept rows, clipped into [m, M]: mean, SE, bias bound
        np.clip(solutions, bound.net.equity_lower_bound(), book, out=solutions)
        kept = settled | certified
        if not (k := int(kept.sum())):
            return np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
        rows, spread = (solutions, bounds) if k == count else (solutions[kept], bounds[kept])
        std_error = rows.std(axis=0, ddof=1) / np.sqrt(k) if k > 1 else np.zeros(n)
        return rows.sum(axis=0) / k, std_error, spread.sum(axis=0) / k

    probed = (steps <= step) & (step > epsilon)  # met a first step: probed once, in place
    if probed.any():
        gap = solutions.copy()  # taken before the map's temporaries: lower peak RSS (README)
        upper = stack.equity_map(gap)  # E', from E: one more sweep
        np.subtract(gap, upper, out=gap)  # w, in E's copy
        offsets = np.arange(count) * n  # the row maxima as segments of the flat stack
        drop, jump = (np.maximum.reduceat(w.ravel(), offsets) for w in (gap, np.abs(gap)))
        settled |= probed & (jump <= epsilon) & (used < budget)
        rate = np.clip(np.divide(drop, steps, out=np.zeros_like(drop), where=steps > 0),
                       0.0, 0.99)
        slack = 64.0 * np.spacing(scale[:, np.newaxis])  # 64 ulp of the scale
        np.maximum(gap, np.maximum(1e-3 * drop[:, np.newaxis], slack), out=gap)
        gap *= (1.0 + 2.0 * rate / (1.0 - rate))[:, np.newaxis]
        probe = np.subtract(upper, np.add(gap, slack, out=gap), out=gap)  # x
        certified |= probed & (stack.equity_map(probe) >= probe).all(axis=1)
        np.copyto(solutions, upper, where=probed[:, np.newaxis])
        np.copyto(bounds, np.subtract(upper, probe, out=upper), where=certified[:, np.newaxis])
        used += probed
        onward((probed & ~certified & ~settled & (used < budget)).nonzero()[0])  # uncertified
    mean, std_error, bias_bound = estimates()
    if (bias_bound > BIAS_SHARE * std_error).any():  # the check: the certified rows go on to ε
        rows = (certified & ~settled & (used < budget)).nonzero()[0]  # settled stay, spent drop
        certified[:], bounds[:] = False, 0.0
        onward(rows)
        mean, std_error, bias_bound = estimates()
    share = None if config.epsilon else np.sort(first / scale)[count // 2]  # no numpy.ma
    return solutions, bounds, settled | certified, certified, (mean, std_error, bias_bound, share)


def _reports(solved: tuple, kind: str = "greatest", warnings: tuple = ()) -> list:
    """One ``SolveReport`` per row of what ``_solve`` returns."""
    solutions, sweeps, residuals, epsilon, converged = solved
    return [SolveReport(solution=solution, iterations=int(sweeps[k]),
                        converged=bool(converged[k]),
                        residual=float(residuals[k]), kind=kind,
                        epsilon=float(epsilon[k]), warnings=warnings)
            for k, solution in enumerate(solutions)]


def solve(net: FinancialNetwork, spec: ValuationSpec, config: Optional[SolveConfig] = None,
          start: Union[str, np.ndarray] = FACE_VALUES) -> SolveReport:
    """Run the fixed-point iteration from ``start``.

    ``"face_values"`` and ``"lower_bounds"`` give the greatest/least bracket
    solves; a per-bank equity vector is clamped into ``[m, M]`` and iterated
    as a custom solve, whose limit (when it converges) lies between the two
    bracket solutions.
    """
    bound = spec.bind(net)
    kind, warnings = "custom", ()
    if isinstance(start, str):
        if start not in (FACE_VALUES, LOWER_BOUNDS):
            raise ValueError(f"unknown start {start!r}")
        kind = "greatest" if start == FACE_VALUES else "least"
        start = bound.book_equity if start == FACE_VALUES else net.equity_lower_bound()
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (net.n,):
            raise ValueError(f"custom start must have shape ({net.n},), got {start.shape}")
        if np.isnan(start).any():
            raise ValueError("custom start must not hold NaN")
    if kind == "least" and not spec.continuous_from_below:
        warnings = (
            "spec contains a valuation function that is not continuous from "
            "below; the limit from the lower bounds may overshoot the least "
            "solution",)
    start = np.clip(start, net.equity_lower_bound(), bound.book_equity)
    return _reports(_solve(bound, start[np.newaxis], config), kind, warnings)[0]


def greatest_solution(net: FinancialNetwork, spec: ValuationSpec,
                      config: Optional[SolveConfig] = None) -> SolveReport:
    """Iterate from face values; converges to the greatest solution."""
    return solve(net, spec, config)


def least_solution(net: FinancialNetwork, spec: ValuationSpec,
                   config: Optional[SolveConfig] = None) -> SolveReport:
    """Iterate upwards from the lower bounds towards the least solution.

    Convergence to the least solution is only guaranteed for valuation
    functions continuous from below; specs with downward jumps carry a
    warning in the report.
    """
    return solve(net, spec, config, LOWER_BOUNDS)


def uniqueness_check(net: FinancialNetwork, spec: ValuationSpec,
                     config: Optional[SolveConfig] = None) -> UniquenessReport:
    """Solve both brackets and compare them.

    The solution is declared unique when the brackets agree within twice
    the solve tolerance; if either bracket failed to converge the answer
    is indeterminate (``unique=None``).
    """
    greatest = greatest_solution(net, spec, config)
    least = least_solution(net, spec, config)
    gap = float(np.max(np.abs(greatest.solution - least.solution)))
    if not (greatest.converged and least.converged):
        return UniquenessReport(unique=None, gap=gap, greatest=greatest, least=least)
    return UniquenessReport(unique=gap <= 2.0 * greatest.epsilon, gap=gap,
                            greatest=greatest, least=least)


def en_clearing_payments(net: FinancialNetwork, equities: np.ndarray) -> np.ndarray:
    """Interbank payments implied by an equity vector under pro-rata
    clearing: each bank pays its obligations scaled by its clearing factor."""
    obligations = net.total_obligations()
    return obligations * en_interbank(equities, obligations)
