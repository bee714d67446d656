"""Fixed points of the self-consistent equity map.

The map is monotone and sends the box ``[m, M]`` (all-liabilities-lost to
face-value equities) into itself, so its fixed points form a complete
lattice.  Plain fixed-point iteration started from the face values ``M``
decreases monotonically to the greatest solution; started from the lower
bounds ``m`` it increases towards the least solution provided the valuation
functions are continuous from below.  Comparing the two brackets decides
uniqueness up to the solve tolerance, and on acyclic claim graphs the
iteration terminates exactly after a number of sweeps bounded by the claim
depth.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional, Union

import numpy as np

from .network import FinancialNetwork, topology
from .valuation import BoundValuation, ValuationSpec, en_interbank, unit_external

__all__ = [
    "SolveConfig",
    "SolveReport",
    "UniquenessReport",
    "default_epsilon",
    "solve",
    "greatest_solution",
    "least_solution",
    "uniqueness_check",
    "solve_dag",
    "en_clearing_payments",
]

# Componentwise slack for declaring an iterate non-monotone; covers float
# roundoff in the map evaluation without masking genuine violations.
MONOTONE_SLACK = 1e-12

FACE_VALUES = "face_values"
LOWER_BOUNDS = "lower_bounds"


def default_epsilon(net: FinancialNetwork) -> float:
    """Solve tolerance scaled to the network's largest book equity."""
    return float(_scaled_epsilon(net.book_equity()))


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

    def resolve_epsilon(self, net: FinancialNetwork) -> float:
        return self.epsilon if self.epsilon is not None else default_epsilon(net)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one fixed-point iteration run.

    ``monotone`` records whether the iterates moved in the direction the
    start point predicts (downwards from face values, upwards from the
    lower bounds); a violation beyond slack signals a non-feasible
    valuation function.  ``residual`` is the final sup-norm step.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    residual: float
    monotone: Optional[bool]
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


def _iterate(map_rows, start: np.ndarray, epsilon, max_iterations: int,
             direction: int = 0) -> tuple:
    """Fixed-point iteration of every row of the ``(batch, n)`` stack ``start``.

    ``map_rows(rows)`` gives the map of the rows ``rows``.  A row retires once
    its sup-norm step is at most its ``epsilon`` (scalar or per row); only then
    is the map asked for again (never for zero rows) and the compact active
    rows written back.
    Returns per row the last iterate, sweeps, last step and whether every step
    went in ``direction`` (-1 falling, +1 rising, 0 any).
    """
    solutions = np.array(start, dtype=float)
    active = np.arange(len(solutions))
    sweeps = np.full(active.shape, max_iterations)
    residuals = np.full(active.shape, np.inf)
    monotone = np.ones(active.shape, dtype=bool)
    tolerance = np.broadcast_to(epsilon, active.shape)
    equities, steps, ordered = solutions, residuals, monotone
    equity_map = None
    for sweep in range(1, max_iterations + 1):
        if not active.size:
            break
        if equity_map is None:
            equity_map = map_rows(active)
        updated = equity_map(equities)
        # the last iterate is not read again: its buffer takes the change
        change = np.subtract(updated, equities, out=equities)
        if direction:
            ordered = ordered & ~np.any(direction * change < -MONOTONE_SLACK, axis=1)
        # the row maxima as segments of the flat stack: max(axis=1) pays per row
        steps = np.maximum.reduceat(np.abs(change, out=change).ravel(),
                                    np.arange(0, change.size, change.shape[1]))
        equities = updated
        done = steps <= tolerance
        if done.any():
            retired, keep = active[done], ~done
            solutions[retired] = equities[done]
            residuals[retired] = steps[done]
            sweeps[retired] = sweep
            monotone[retired] = ordered[done]
            active, equities, steps = active[keep], equities[keep], steps[keep]
            ordered, tolerance = ordered[keep], tolerance[keep]
            equity_map = None  # rebuilt for the rows left, if any
    solutions[active], residuals[active], monotone[active] = equities, steps, ordered
    return solutions, sweeps, residuals, monotone


def _solve(bound: BoundValuation, start: np.ndarray, epsilon, max_iterations: int,
           kind: str, warnings: tuple = ()) -> list:
    """One ``SolveReport`` per row of the stack ``start``, clamped into ``[m, M]``."""
    direction = {"greatest": -1, "least": +1}.get(kind, 0)
    solutions, sweeps, residuals, monotone = _iterate(
        lambda rows: bound.rows(rows).equity_map, start, epsilon, max_iterations, direction)
    solutions = np.clip(solutions, bound.net.equity_lower_bound(), bound.book_equity)
    epsilon = np.broadcast_to(epsilon, residuals.shape)
    reports = []
    for k, solution in enumerate(solutions):
        ordered = bool(monotone[k]) if direction else None
        reports.append(SolveReport(
            solution=solution, iterations=int(sweeps[k]),
            converged=bool(residuals[k] <= epsilon[k]), residual=float(residuals[k]),
            monotone=ordered, kind=kind, epsilon=float(epsilon[k]),
            warnings=warnings + (("iterates were not monotone; a valuation function "
                                  "may not be feasible",) if ordered is False else ())))
    return reports


def _greatest(bound: BoundValuation, config: Optional[SolveConfig]) -> list:
    """Greatest solves of the rows of a stacked binding, from their book equities."""
    config = config or SolveConfig()
    epsilon = config.epsilon or _scaled_epsilon(bound.book_equity)  # per row
    return _solve(bound, bound.book_equity, epsilon, config.max_iterations, "greatest")


def solve(net: FinancialNetwork, spec: ValuationSpec, config: Optional[SolveConfig] = None,
          start: Union[str, np.ndarray] = FACE_VALUES) -> SolveReport:
    """Run the fixed-point iteration from ``start``.

    ``"face_values"`` and ``"lower_bounds"`` give the greatest/least bracket
    solves; a per-bank equity vector is clamped into ``[m, M]`` and iterated
    as a custom solve, whose limit (when it converges) lies between the two
    bracket solutions.
    """
    config = config or SolveConfig()
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
    if kind == "least" and not spec.continuous_from_below:
        warnings = (
            "spec contains a valuation function that is not continuous from "
            "below; the limit from the lower bounds may overshoot the least "
            "solution",)
    start = np.clip(start, net.equity_lower_bound(), bound.book_equity)
    return _solve(bound, start[np.newaxis], config.resolve_epsilon(net),
                  config.max_iterations, kind, warnings)[0]


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


def solve_dag(net: FinancialNetwork, spec: ValuationSpec) -> SolveReport:
    """Exact solve on an acyclic claim graph.

    With unit external valuation and borrower-only interbank factors, banks
    settle in order of their claim depth: sources are exact immediately and
    each sweep finalizes the next depth layer, so the iteration reaches a
    bitwise fixed point within ``depth + 1`` sweeps and the unique solution
    is returned with zero residual.  This is the generic iteration with a
    budget of ``depth + 1`` sweeps and an exact stop, which the report
    records as ``epsilon=0.0``.
    """
    info = topology(net)
    if not info.is_dag:
        raise ValueError("solve_dag requires an acyclic claim graph")
    if spec.external_family.factor is not unit_external:
        raise ValueError("solve_dag requires unit external valuation")
    if spec.depends_on_lender:
        raise ValueError(
            "solve_dag requires borrower-only interbank valuation functions")
    bound = spec.bind(net)
    (report,) = _solve(bound, bound.book_equity[np.newaxis], 0.0, info.dag_depth + 1,
                       "greatest")
    if not report.converged:
        raise RuntimeError("acyclic iteration failed to settle within depth+1 sweeps")
    return report


def en_clearing_payments(net: FinancialNetwork, equities: np.ndarray) -> np.ndarray:
    """Interbank payments implied by an equity vector under pro-rata
    clearing: each bank pays its obligations scaled by its clearing factor."""
    obligations = net.total_obligations()
    return obligations * en_interbank(equities, obligations)
