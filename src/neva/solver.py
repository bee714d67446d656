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

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional, Union

import numpy as np

from .network import FinancialNetwork
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


def _scaled_epsilon(book_equity: np.ndarray):
    """``1e-10 * max(1, |book equity|)``, one per row of a stack."""
    return 1e-10 * np.maximum(1.0, np.max(np.abs(book_equity), axis=-1))


def _is_number(value, kind) -> bool:
    """Whether ``value`` is a ``kind`` (``numbers.Real`` or ``Integral``,
    numpy scalars included) and not a boolean."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolveConfig:
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


@dataclass(frozen=True, eq=False)
class SolveReport:
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


@dataclass(frozen=True, eq=False)
class UniquenessReport:
    """Bracket comparison; ``unique`` is None when either solve failed."""

    unique: Optional[bool]
    gap: float
    greatest: SolveReport
    least: SolveReport


def _iterate(bound: BoundValuation, start: np.ndarray, epsilon, max_iterations: int) -> tuple:
    """Fixed-point iteration of every row of the ``(batch, n)`` stack ``start``
    under the equity map of ``bound``, laid out once as ``bound.stack(batch)``.

    A row retires once its sup-norm step is at most its ``epsilon`` (scalar or
    per row); the active rows stay compact, in order, and the stack is told
    which it keeps, so the map is never evaluated on zero rows.
    Returns per row the last iterate, sweeps and last step.
    """
    solutions = np.array(start, dtype=float)
    stack = bound.stack(len(solutions))
    active = np.arange(len(solutions))
    sweeps = np.full(active.shape, max_iterations)
    residuals = np.full(active.shape, np.inf)
    tolerance = np.asarray(epsilon)  # one, or one per row
    offsets = active * solutions.shape[1]  # of the rows in the flat stack
    equities, steps = solutions, residuals
    for sweep in range(1, max_iterations + 1):
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
        if done.any():  # the rows left move up, in order, and the stack keeps them
            gone, kept = done.nonzero()[0], (~done).nonzero()[0]
            retired = active[gone]
            solutions[retired] = equities[gone]
            residuals[retired], sweeps[retired] = steps[gone], sweep
            active, equities, steps = active[kept], equities.take(kept, axis=0), steps[kept]
            if tolerance.ndim:
                tolerance = tolerance[kept]
            if kept.size:
                stack.keep(kept)
    solutions[active], residuals[active] = equities, steps
    return solutions, sweeps, residuals


def _solve(bound: BoundValuation, start: np.ndarray, config: Optional[SolveConfig]) -> tuple:
    """The one fixed-point solve of the stack ``start``: per row the solution
    clamped into ``[m, M]``, sweeps, last step and tolerance, which without a
    configured epsilon scales with the row's own book equity."""
    config = config or SolveConfig()
    epsilon = config.epsilon or _scaled_epsilon(bound.book_equity)
    solutions, sweeps, residuals = _iterate(bound, start, epsilon, config.max_iterations)
    solutions = np.clip(solutions, bound.net.equity_lower_bound(), bound.book_equity)
    return solutions, sweeps, residuals, np.broadcast_to(epsilon, residuals.shape)


def _reports(solved: tuple, kind: str = "greatest", warnings: tuple = ()) -> list:
    """One ``SolveReport`` per row of what ``_solve`` returns."""
    solutions, sweeps, residuals, epsilon = solved
    return [SolveReport(solution=solution, iterations=int(sweeps[k]),
                        converged=bool(residuals[k] <= epsilon[k]),
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
