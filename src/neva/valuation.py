"""Valuation functions for interbank claims.

Every interbank valuation maps equity levels to a discount factor in
``[0, 1]`` that multiplies the face value of a claim, and is nondecreasing
in the borrower's (and, where relevant, the lender's) equity.  The module
ships the classic at-maturity rules (Eisenberg-Noe pro-rata clearing,
Rogers-Veraart fire-sale haircuts, Furfine all-or-nothing recovery, linear
DebtRank) and their before-maturity counterparts obtained by averaging the
Eisenberg-Noe payoff over a distribution of future external-asset moves,
either log-normal (zero-drift geometric Brownian motion) or uniform.

The before-maturity factor decomposes as::

    value = 1 - default_probability + beta * endogenous_recovery

where ``beta`` is an extra exogenous haircut applied to whatever is
recovered from a defaulted borrower.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .network import FinancialNetwork, NetworkError

__all__ = [
    "SpecError",
    "ValuationSpec",
    "BoundValuation",
    "Family",
    "INTERBANK_FAMILIES",
    "EXTERNAL_FAMILIES",
    "PARAMETER_CHECKS",
    "FeasibilityViolation",
    "FeasibilityReport",
    "en_interbank",
    "unit_external",
    "rv_external",
    "rv_lender",
    "rv_interbank",
    "furfine_interbank",
    "debtrank_interbank",
    "gbm_default_probability",
    "gbm_endogenous_recovery",
    "exante_interbank",
    "exante_en_gbm_interbank",
    "uniform_default_probability",
    "uniform_endogenous_recovery",
    "exante_en_uniform_interbank",
    "probe_curve",
    "feasibility_probe",
]

class SpecError(ValueError):
    """Raised for valuation parameters outside their admissible range."""


def _positive_part(x):
    return np.maximum(x, 0.0)


def en_interbank(equity, obligations, haircut=1.0):
    """Pro-rata clearing factor: full repayment when solvent, otherwise the
    fraction of total obligations covered by the residual assets, times an
    exogenous ``haircut`` on what a defaulted borrower pays.

    ``1`` if ``equity >= 0``, else ``haircut * ((equity + obligations)/obligations)+``.
    A bank with zero obligations has no creditors, so its factor is fixed at
    ``1`` (the value never enters the equity map but must stay feasible).
    Works rowwise on a batch of equity vectors.
    """
    equity = np.asarray(equity, dtype=float)
    obligations = np.asarray(obligations, dtype=float)
    safe = np.where(obligations > 0, obligations, 1.0)
    frac = haircut * np.clip((equity + obligations) / safe, 0.0, 1.0)
    frac = np.where(obligations > 0, frac, 1.0)
    return np.where(equity >= 0, 1.0, frac)


def unit_external(equity):
    """External-asset factor without fire sales: always ``1``."""
    return np.ones(np.shape(equity))


def rv_external(equity, alpha):
    """External-asset factor with a fire-sale haircut ``alpha`` on default."""
    equity = np.asarray(equity, dtype=float)
    return np.where(equity >= 0, 1.0, float(alpha))


def rv_lender(equity, beta):
    """Lender-side factor: a defaulted lender liquidates its interbank
    assets at a fraction ``beta`` of their clearing value."""
    equity = np.asarray(equity, dtype=float)
    return np.where(equity >= 0, 1.0, float(beta))


def rv_interbank(lender_equity, borrower_equity, beta, obligations):
    """Fire-sale interbank factor: the lender haircut times the pro-rata
    clearing factor of the borrower."""
    return rv_lender(lender_equity, beta) * en_interbank(borrower_equity, obligations)


def furfine_interbank(equity, recovery):
    """All-or-nothing factor: ``1`` when solvent, fixed ``recovery`` when not."""
    equity = np.asarray(equity, dtype=float)
    return np.where(equity >= 0, 1.0, float(recovery))


def debtrank_interbank(equity, book_equity):
    """Linear distress factor: the borrower's positive equity relative to its
    book value, capped at one.

    A bank whose book equity is not positive is treated as recovering
    nothing (factor ``0``), which keeps the factor within ``[0, 1]`` and
    nondecreasing on all inputs.
    """
    equity = np.asarray(equity, dtype=float)
    book_equity = np.asarray(book_equity, dtype=float)
    safe = np.where(book_equity > 0, book_equity, 1.0)
    frac = np.clip(_positive_part(equity) / safe, 0.0, 1.0)
    return np.where(book_equity > 0, frac, 0.0)


def _gbm_args(equity, external_assets, sigma, maturity):
    equity = np.asarray(equity, dtype=float)
    external_assets = np.asarray(external_assets, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise SpecError("sigma must be positive")
    if np.any(np.asarray(maturity) <= 0):
        raise SpecError("time to maturity must be positive")
    return equity, external_assets, sigma


def _gbm_terms(x, external_assets, half_var, spread):
    """Default probability at equity ``x`` and the recovery's tail term
    ``erf((half_var + L)/spread) + erf((half_var - L)/spread)``, ``L = log(1 -
    x/Ae)``, where ``x`` lies below positive external assets (else zero)."""
    # imported on first use, so that ``import neva`` does not load scipy
    from scipy.special import erf

    stochastic = external_assets > 0
    under = stochastic & (x < external_assets)
    ratio = np.divide(x, external_assets, out=np.zeros(under.shape), where=under)
    # log1p(-1) = -inf would still feed erf the correct limit; keep it quiet
    with np.errstate(divide="ignore"):
        log = np.log1p(-ratio)
    plus = erf((log + half_var) / spread)
    prob = np.where(stochastic, np.where(under, 0.5 * (1.0 + plus), 0.0),
                    np.where(x < 0, 1.0, 0.0))
    return prob, np.where(under, plus + erf((half_var - log) / spread), 0.0)


def gbm_default_probability(equity, external_assets, sigma, maturity):
    """Probability that a log-normal move of the external assets wipes out
    the given equity before maturity.

    The assets follow a zero-drift geometric Brownian motion with volatility
    ``sigma`` over the remaining time ``maturity``; default means the asset
    drop exceeds the current equity.  Equity at or above the external assets
    cannot be wiped out (assets stay positive), so the probability is zero
    there.  With zero external assets the move is identically zero and the
    probability degenerates to the solvency indicator.
    """
    equity, external_assets, sigma = _gbm_args(equity, external_assets, sigma, maturity)
    out = _gbm_terms(equity, external_assets, 0.5 * sigma * sigma * maturity,
                     np.sqrt(2.0 * maturity) * sigma)[0]
    return out if out.ndim else float(out)


def _gbm_recovery(equity, external_assets, sigma, maturity, obligations):
    """Default probability and endogenous recovery under the log-normal model:
    each of their four erf terms is evaluated once."""
    equity, external_assets, sigma = _gbm_args(equity, external_assets, sigma, maturity)
    obligations = np.asarray(obligations, dtype=float)
    half_var = 0.5 * sigma * sigma * maturity
    spread = np.sqrt(2.0 * maturity) * sigma
    p_default, tail0 = _gbm_terms(equity, external_assets, half_var, spread)
    p_cleared, tail1 = _gbm_terms(equity + obligations, external_assets,
                                  half_var, spread)
    has_debt = obligations > 0
    safe_pbar = np.where(has_debt, obligations, 1.0)
    closed = ((1.0 + equity / safe_pbar) * (p_default - p_cleared)
              + external_assets * (tail1 - tail0) / (2.0 * safe_pbar))
    # Degenerate point mass at zero move: at-maturity pro-rata recovery.
    point_mass = np.where(equity < 0,
                          np.clip((equity + obligations) / safe_pbar, 0.0, 1.0),
                          0.0)
    recovery = np.where(external_assets > 0, closed, point_mass)
    return p_default, np.where(has_debt, np.clip(recovery, 0.0, 1.0), 0.0)


def gbm_endogenous_recovery(equity, external_assets, sigma, maturity, obligations):
    """Expected pro-rata repayment fraction recovered from a borrower that
    defaults under the log-normal shock model.

    Averages ``(terminal equity + obligations) / obligations`` over the
    asset moves that leave the borrower in default but with something left
    to distribute.  Evaluated in closed form from the log-normal partial
    expectation; the tail-expectation term carries the external-assets
    scale.  Zero obligations leave nothing to recover against; zero
    external assets reduce to the at-maturity pro-rata fraction.
    """
    out = _gbm_recovery(equity, external_assets, sigma, maturity, obligations)[1]
    return out if out.ndim else float(out)


def exante_interbank(default_probability, recovery, beta):
    """Before-maturity factor ``1 - p_default + beta * recovery``."""
    value = 1.0 - np.asarray(default_probability, dtype=float) \
        + np.asarray(beta, dtype=float) * np.asarray(recovery, dtype=float)
    return np.clip(value, 0.0, 1.0)


def exante_en_gbm_interbank(equity, external_assets, sigma, maturity,
                            obligations, beta=1.0):
    """Before-maturity pro-rata factor under the log-normal shock model."""
    return exante_interbank(*_gbm_recovery(equity, external_assets, sigma,
                                           maturity, obligations), beta)


def uniform_default_probability(equity, book_equity):
    """Default probability when the asset move is uniform on
    ``[-book_equity, 0]``: one minus the positive equity share of book value,
    clamped to ``[0, 1]``; that is, one minus the linear distress factor.
    Non-positive book equity means certain default.
    """
    out = 1.0 - debtrank_interbank(equity, book_equity)
    return out if np.ndim(out) else float(out)


def uniform_endogenous_recovery(equity, book_equity, obligations):
    """Expected pro-rata repayment fraction under the uniform shock model.

    Integrates ``(equity + move + obligations) / obligations`` over the
    moves in ``[-book_equity, 0]`` that leave the borrower in default with
    residual assets; the integral is elementary and evaluated exactly.
    """
    equity = np.asarray(equity, dtype=float)
    book_equity = np.asarray(book_equity, dtype=float)
    obligations = np.asarray(obligations, dtype=float)
    ok = (book_equity > 0) & (obligations > 0)
    safe_m = np.where(ok, book_equity, 1.0)
    safe_p = np.where(ok, obligations, 1.0)
    upper = -_positive_part(equity)
    lower = np.maximum(-obligations - equity, -book_equity)
    width = upper - lower
    value = ((equity + obligations) / (safe_p * safe_m) * width
             + (upper * upper - lower * lower) / (2.0 * safe_p * safe_m))
    value = np.where(width > 0, value, 0.0)
    out = np.where(ok, np.clip(value, 0.0, 1.0), 0.0)
    return out if out.ndim else float(out)


def exante_en_uniform_interbank(equity, book_equity, obligations, beta=1.0):
    """Before-maturity pro-rata factor under the uniform shock model."""
    pd_ = uniform_default_probability(equity, book_equity)
    rho = uniform_endogenous_recovery(equity, book_equity, obligations)
    return exante_interbank(pd_, rho, beta)


def _check_unit_interval(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise SpecError(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_sigma(name: str, value):
    value = float(value) if np.ndim(value) == 0 else tuple(float(s) for s in value)
    if not all(np.isfinite(s) and s > 0 for s in np.atleast_1d(value)):
        raise SpecError(f"{name} must be positive and finite")
    return value


def _check_maturity(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise SpecError(f"time to {name} must be positive; valuation at maturity "
                        "is pro-rata clearing with haircut beta (the "
                        "eisenberg_noe family when beta is 1)")
    return value


# Validator per valuation parameter; each returns the value normalized to
# floats (a per-bank sigma becomes a tuple).
PARAMETER_CHECKS = {
    "alpha": _check_unit_interval,
    "beta": _check_unit_interval,
    "recovery": _check_unit_interval,
    "sigma": _check_sigma,
    "maturity": _check_maturity,
}


@dataclass(frozen=True)
class Family:
    """One valuation family: its factor functions and what they read.

    ``factor`` maps equities to the borrower-side (or external-asset)
    factor; ``lender``, when present, is a lender-side multiplier.  Their
    ``reads`` name the keyword arguments each takes besides the equity:
    per-bank constants (``obligations``, ``book_equity``,
    ``external_assets``, per-bank ``sigma``) or spec parameters (the keys of
    ``PARAMETER_CHECKS``).  ``jump`` names the parameter that, below one,
    makes a factor jump at zero equity.
    """

    factor: Callable
    reads: tuple = ()
    lender: Optional[Callable] = None
    lender_reads: tuple = ()
    jump: Optional[str] = None
    exante: bool = False

    @property
    def factors(self) -> tuple:
        """``(function, reads)`` pairs: the factor, then any lender factor."""
        if self.lender is None:
            return ((self.factor, self.reads),)
        return ((self.factor, self.reads), (self.lender, self.lender_reads))

    @property
    def fields(self) -> tuple:
        """Everything the factors read, in order, without repeats."""
        return tuple(dict.fromkeys(self.reads + self.lender_reads))

    @property
    def params(self) -> tuple:
        """The spec parameters the family needs."""
        return tuple(name for name in self.fields if name in PARAMETER_CHECKS)

    def bind(self, values: Mapping) -> tuple:
        """The functions of ``factors`` with every argument but the equity
        taken from ``values``."""
        return tuple(partial(function, **{name: values[name] for name in reads})
                     for function, reads in self.factors)


INTERBANK_FAMILIES = {
    "eisenberg_noe": Family(en_interbank, ("obligations",)),
    "rogers_veraart": Family(en_interbank, ("obligations",), rv_lender, ("beta",),
                             jump="beta"),
    "furfine": Family(furfine_interbank, ("recovery",), jump="recovery"),
    "linear_debtrank": Family(debtrank_interbank, ("book_equity",)),
    "exante_en_gbm": Family(exante_en_gbm_interbank,
                            ("external_assets", "sigma", "maturity", "obligations",
                             "beta"), exante=True),
    "exante_en_uniform": Family(exante_en_uniform_interbank,
                                ("book_equity", "obligations", "beta"), exante=True),
}
EXTERNAL_FAMILIES = {
    "unit": Family(unit_external),
    "rogers_veraart": Family(rv_external, ("alpha",), jump="alpha"),
}


@dataclass(frozen=True)
class ValuationSpec:
    """A chosen external plus interbank valuation family with parameters.

    ``sigma`` may be a single volatility applied to every bank or a per-bank
    sequence; ``maturity`` is the remaining time to the common maturity.
    Prefer the classmethod constructors, which only ask for the parameters
    their family uses.
    """

    interbank_kind: str
    external_kind: str = "unit"
    alpha: Optional[float] = None
    beta: Optional[float] = None
    recovery: Optional[float] = None
    sigma: Union[float, tuple, None] = None
    maturity: Optional[float] = None

    def __post_init__(self):
        needed = {}  # parameter -> the kind that needs it
        for side, kind, table in (("external", self.external_kind, EXTERNAL_FAMILIES),
                                  ("interbank", self.interbank_kind, INTERBANK_FAMILIES)):
            if not isinstance(kind, str) or kind not in table:
                raise SpecError(f"unknown {side} valuation kind {kind!r}")
            needed.update(dict.fromkeys(table[kind].params, kind))
        for name, check in PARAMETER_CHECKS.items():
            value = getattr(self, name)
            if name in needed:
                if value is None:
                    raise SpecError(f"{needed[name]} needs {name}")
                object.__setattr__(self, name, check(name, value))
            elif value is not None:
                raise SpecError(f"{name} does not apply to {self.interbank_kind} "
                                f"with {self.external_kind} external valuation")

    @classmethod
    def eisenberg_noe(cls) -> "ValuationSpec":
        return cls(interbank_kind="eisenberg_noe")

    @classmethod
    def rogers_veraart(cls, alpha: float, beta: float) -> "ValuationSpec":
        return cls(interbank_kind="rogers_veraart", external_kind="rogers_veraart",
                   alpha=alpha, beta=beta)

    @classmethod
    def furfine(cls, recovery: float) -> "ValuationSpec":
        return cls(interbank_kind="furfine", recovery=recovery)

    @classmethod
    def linear_debtrank(cls) -> "ValuationSpec":
        return cls(interbank_kind="linear_debtrank")

    @classmethod
    def exante_en_gbm(cls, sigma, maturity: float, beta: float = 1.0) -> "ValuationSpec":
        return cls(interbank_kind="exante_en_gbm", sigma=sigma, maturity=maturity,
                   beta=beta)

    @classmethod
    def exante_en_uniform(cls, beta: float) -> "ValuationSpec":
        return cls(interbank_kind="exante_en_uniform", beta=beta)

    @property
    def family(self) -> Family:
        return INTERBANK_FAMILIES[self.interbank_kind]

    @property
    def external_family(self) -> Family:
        return EXTERNAL_FAMILIES[self.external_kind]

    @property
    def is_exante(self) -> bool:
        return self.family.exante

    @property
    def depends_on_lender(self) -> bool:
        return self.family.lender is not None

    @property
    def continuous_from_below(self) -> bool:
        """Whether every factor in the spec is continuous from below.

        Convergence of the iteration started at the lattice bottom is only
        guaranteed under this property.  The pro-rata and linear families
        are continuous; the fire-sale and all-or-nothing families jump at
        zero equity unless their haircut parameter equals one.
        """
        return all(getattr(self, family.jump) >= 1.0
                   for family in (self.external_family, self.family) if family.jump)

    def sigma_vector(self, n: int) -> np.ndarray:
        if self.sigma is None:
            raise SpecError(f"{self.interbank_kind} has no volatility parameter")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            return np.full(n, float(sigma))
        if sigma.shape != (n,):
            raise SpecError(f"sigma must be scalar or have shape ({n},), got {sigma.shape}")
        return sigma.copy()

    def bind(self, net: FinancialNetwork, external_assets=None) -> "BoundValuation":
        """Attach the spec to ``net``; ``external_assets``, an ``(n,)`` vector
        or a ``(batch, n)`` stack, stands in for the network's (row by row)."""
        assets = (net.external_assets if external_assets is None
                  else np.asarray(external_assets, dtype=float))
        if assets.ndim not in (1, 2) or assets.shape[-1] != net.n:
            raise NetworkError(f"external assets of shape {assets.shape} for {net.n} banks")
        obligations = net.total_obligations()
        constants = {name: getattr(self, name) for name in PARAMETER_CHECKS}
        constants.update(
            obligations=obligations, external_assets=assets,
            sigma=None if self.sigma is None else self.sigma_vector(net.n),
            book_equity=(assets - net.external_liabilities
                         + net.interbank_assets.sum(axis=1) - obligations))
        return BoundValuation(self, net, constants)


def _claim_discounts(borrower_factors, lender_factors, lenders, borrowers):
    """Discounts on the claims of ``lenders`` on ``borrowers`` (index arrays)
    from per-bank factor rows: the borrower factor, times the lender factor
    when the family has one (``lender_factors`` is None otherwise).  Stacked
    factor rows give one set of discounts per row."""
    discounts = np.take(borrower_factors, borrowers, axis=-1)
    if lender_factors is None:
        return discounts
    return np.take(lender_factors, lenders, axis=-1) * discounts


@dataclass(frozen=True, eq=False)
class BoundValuation:
    """A valuation spec attached to one network's balance-sheet constants.

    ``constants`` maps every name a factor can read to its value: the
    per-bank obligations, book equities, external assets and (for the
    log-normal family) volatilities, and the spec parameters.  The family's
    factor functions are bound to them once, so factor vectors and the
    equity map can be evaluated repeatedly at different equities, row by row
    when bound to a ``(batch, n)`` stack of external assets.
    """

    spec: ValuationSpec
    net: FinancialNetwork
    constants: dict = field(repr=False)
    obligations: np.ndarray = field(init=False)
    book_equity: np.ndarray = field(init=False)
    external_assets: np.ndarray = field(init=False)
    sigma: Optional[np.ndarray] = field(init=False)  # None outside log-normal
    _borrower: Callable = field(init=False, repr=False)
    _lender: Optional[Callable] = field(init=False, repr=False)
    _external: Callable = field(init=False, repr=False)

    def __post_init__(self):
        constants = self.constants
        borrower, *lender = self.spec.family.bind(constants)
        (external,) = self.spec.external_family.bind(constants)
        vars(self).update(  # frozen: fill the init=False fields directly
            obligations=constants["obligations"], book_equity=constants["book_equity"],
            external_assets=constants["external_assets"], sigma=constants["sigma"],
            _borrower=borrower, _lender=lender[0] if lender else None, _external=external)

    def rows(self, index) -> "BoundValuation":
        """The valuation of rows ``index`` of a stack of external assets; per-bank
        constants shared by every row become one ``(1, n)`` row, because numpy
        combines operands of equal rank on a faster path."""
        return BoundValuation(self.spec, self.net, {
            name: value[index] if np.ndim(value) == 2
            else value[np.newaxis] if np.ndim(value) == 1 else value
            for name, value in self.constants.items()})

    def external_factors(self, equities: np.ndarray) -> np.ndarray:
        return self._external(equities)

    def lender_factors(self, equities: np.ndarray) -> Optional[np.ndarray]:
        """Per-lender multiplier, or None when the family ignores the lender."""
        return None if self._lender is None else self._lender(equities)

    def borrower_factors(self, equities: np.ndarray) -> np.ndarray:
        return self._borrower(equities)

    def edge_discounts(self, equities: np.ndarray) -> np.ndarray:
        """Matrix of claim discount factors; entry ``[i, j]`` values bank i's
        claim on bank j (meaningful wherever such a claim exists).  A stack
        of equities gives one matrix per row."""
        return self.edge_factor(*np.indices((self.net.n,) * 2), equities)

    def edge_factor(self, lender, borrower, equities: np.ndarray):
        """Discount on bank ``lender``'s claim on bank ``borrower``; index
        arrays give one discount per (broadcast) pair, and a stack of
        equities one set per row."""
        equities = np.asarray(equities, dtype=float)
        return _claim_discounts(self.borrower_factors(equities),
                                self.lender_factors(equities), lender, borrower)

    def equity_map(self, equities: np.ndarray) -> np.ndarray:
        """One application of the self-consistent balance-sheet valuation:
        external assets at their external factor, claims at their discount
        factors, liabilities at face value; row by row on a stack."""
        inflow = self.borrower_factors(equities) @ self.net.interbank_liabilities
        lender = self.lender_factors(equities)
        if lender is not None:
            inflow = lender * inflow
        return (self.external_assets * self.external_factors(equities)
                - self.net.external_liabilities + inflow - self.obligations)


@dataclass(frozen=True)
class FeasibilityViolation:
    family: str
    parameters: dict
    kind: str  # "range" or "monotonicity"
    equity: float
    value: float
    previous_equity: Optional[float] = None
    previous_value: Optional[float] = None

    def __str__(self) -> str:
        if self.kind == "range":
            return (f"{self.family}{self.parameters}: value {self.value} at "
                    f"equity {self.equity} falls outside [0, 1]")
        return (f"{self.family}{self.parameters}: value decreases from "
                f"{self.previous_value} at equity {self.previous_equity} to "
                f"{self.value} at equity {self.equity}")


@dataclass(frozen=True)
class FeasibilityReport:
    passed: bool
    checked: int
    violation: Optional[FeasibilityViolation] = None


def probe_curve(family: str, parameters: Mapping, grid: Sequence[float],
                values: Sequence[float], tolerance: float = 1e-12) -> FeasibilityReport:
    """Check one factor curve for range containment in [0, 1] and
    nondecreasing behavior along an ascending equity grid, reporting the
    first violation found."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    params = dict(parameters)
    for k in range(len(grid)):
        v = values[k]
        if not np.isfinite(v) or v < -tolerance or v > 1.0 + tolerance:
            return FeasibilityReport(False, k + 1, FeasibilityViolation(
                family, params, "range", float(grid[k]), float(v)))
        if k and v < values[k - 1] - tolerance:
            return FeasibilityReport(False, k + 1, FeasibilityViolation(
                family, params, "monotonicity", float(grid[k]), float(v),
                float(grid[k - 1]), float(values[k - 1])))
    return FeasibilityReport(True, len(grid))


def feasibility_probe(spec: ValuationSpec, net: FinancialNetwork,
                      points: int = 201, margin: float = 1.0,
                      tolerance: float = 1e-12) -> FeasibilityReport:
    """Probe every factor the spec ships against every bank of the network.

    For each bank the equity grid spans the bank's lattice interval extended
    by ``margin`` on both sides.  Factorized lender/borrower families are
    checked one argument at a time, which implies joint monotonicity.
    """
    bound = spec.bind(net)
    lower = net.equity_lower_bound()
    upper = bound.book_equity
    factors = spec.family.factors + spec.external_family.factors
    checked = 0
    for j in range(net.n):
        grid = np.linspace(lower[j] - margin, upper[j] + margin, points)
        for function, reads in factors:
            params = {name: bound.constants[name] for name in reads}
            params = {name: float(value[j]) if np.ndim(value) else value
                      for name, value in params.items()}
            report = probe_curve(function.__name__, {"bank": net.bank_ids[j], **params},
                                 grid, function(grid, **params), tolerance)
            checked += report.checked
            if not report.passed:
                return FeasibilityReport(False, checked, report.violation)
    return FeasibilityReport(True, checked)
