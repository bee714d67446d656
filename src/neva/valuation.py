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

from functools import partial
from numbers import Real
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .network import FinancialNetwork, NetworkError, Record, _is_number

__all__ = [
    "SpecError",
    "ValuationSpec",
    "BoundValuation",
    "Family",
    "INTERBANK_FAMILIES",
    "EXTERNAL_FAMILIES",
    "PARAMETER_CHECKS",
    "en_interbank",
    "unit_external",
    "rv_external",
    "rv_lender",
    "rv_interbank",
    "furfine_interbank",
    "debtrank_interbank",
    "gbm_default_probability",
    "gbm_endogenous_recovery",
    "exante_en_gbm_interbank",
    "uniform_default_probability",
    "uniform_endogenous_recovery",
    "exante_en_uniform_interbank",
]

class SpecError(ValueError):
    """Raised for valuation parameters or factor constants out of range."""


def _in_range(prepared: dict, **formulas) -> dict:
    """``prepared``, a ``prepare``'s constants, if each one in ``formulas`` is
    finite; else SpecError naming the first bank (k on the last axis) where not."""
    for name, formula in formulas.items():
        finite = np.isfinite(prepared[name])
        if not finite.all():
            at = np.unravel_index(np.argmin(finite), finite.shape)
            raise SpecError(f"{f'banks[{at[-1]}]: ' if at else ''}{formula} leaves the "
                            f"float range ({prepared[name][at]:g})")
    return prepared


def _en_prepare(obligations, beta=1.0) -> dict:
    """Reciprocal obligations (0 for a bank owing nothing) and, unless ``beta``
    is 1, the haircut on what a defaulted borrower pays (1 without debt)."""
    obligations = np.asarray(obligations, dtype=float)
    has_debt = obligations > 0
    with np.errstate(over="ignore"):
        reciprocal = np.divide(1.0, obligations, out=np.zeros(obligations.shape), where=has_debt)
    return _in_range({"reciprocal": reciprocal, "haircut": None if np.all(np.equal(beta, 1.0))
                      else np.where(has_debt, beta, 1.0)}, reciprocal="1/obligations")


def _en_kernel(equity, reciprocal, haircut):
    with np.errstate(over="ignore"):  # an infinite ratio clips to 0 or 1 as a finite one
        factor = np.asarray(equity * reciprocal)  # 0-d for scalars: worked on in place
    factor += 1.0
    np.clip(factor, 0.0, 1.0, out=factor)
    if haircut is not None:
        factor *= np.where(np.less(equity, 0.0), haircut, 1.0)
    return factor


def en_interbank(equity, obligations, beta=1.0):
    """Pro-rata clearing factor: full repayment when solvent, otherwise the
    fraction of total obligations covered by the residual assets, times an
    exogenous haircut ``beta`` on what a defaulted borrower pays.

    ``1`` if ``equity >= 0``, else ``beta * clip(1 + equity/obligations, 0, 1)``.
    A bank with zero obligations has no creditors, so its factor is fixed at
    ``1`` for every ``beta`` (the value never enters the equity map but must
    stay feasible).  Works rowwise on a batch of equity vectors; the
    obligations are inverted once, so a batch costs one multiply per entry.
    """
    return _en_kernel(equity, **_en_prepare(obligations, beta))[()]


def unit_external(equity):
    """External-asset factor without fire sales: always ``1``."""
    return np.ones(np.shape(equity))[()]


def rv_external(equity, alpha):
    """External-asset factor with a fire-sale haircut ``alpha`` on default."""
    return np.where(np.greater_equal(equity, 0.0), 1.0, alpha)[()]


def rv_lender(equity, beta):
    """Lender-side factor: a defaulted lender liquidates its interbank
    assets at a fraction ``beta`` of their clearing value."""
    return np.where(np.greater_equal(equity, 0.0), 1.0, beta)[()]


def rv_interbank(lender_equity, borrower_equity, beta, obligations):
    """Fire-sale interbank factor: the lender haircut times the pro-rata
    clearing factor of the borrower."""
    return rv_lender(lender_equity, beta) * en_interbank(borrower_equity, obligations)


def furfine_interbank(equity, recovery):
    """All-or-nothing factor: ``1`` when solvent, fixed ``recovery`` when not."""
    return np.where(np.greater_equal(equity, 0.0), 1.0, recovery)[()]


def debtrank_interbank(equity, book_equity):
    """Linear distress factor: the borrower's positive equity relative to its
    book value, capped at one.

    A bank whose book equity is not positive is treated as recovering
    nothing (factor ``0``), which keeps the factor within ``[0, 1]`` and
    nondecreasing on all inputs.
    """
    return _debtrank_kernel(equity, **_debtrank_prepare(book_equity))[()]


def _debtrank_prepare(book_equity) -> dict:
    """Book equities, 1 where not positive, and the mask of those (None if empty)."""
    book_equity = np.asarray(book_equity, dtype=float)
    positive = book_equity > 0
    return {"safe_book": np.where(positive, book_equity, 1.0),
            "worthless": None if positive.all() else ~positive}


def _debtrank_kernel(equity, safe_book, worthless):
    frac = np.asarray(np.maximum(equity, 0.0) / safe_book)
    np.clip(frac, 0.0, 1.0, out=frac)
    return frac if worthless is None else np.where(worthless, 0.0, frac)


def _log_move(sigma, maturity) -> tuple:
    """``1/spread`` and ``half_variance/spread`` of the log move of a positive sigma
    (a number or array) and maturity; SpecError unless these and the spread are finite."""
    with np.errstate(all="ignore"):
        spread = np.sqrt(2.0 * maturity) * sigma
        move = {"spread": spread, "inverse": 1.0 / spread,
                "scaled": 0.5 * sigma * sigma * maturity / spread}
    _in_range(move, spread="the spread sqrt(2 * maturity) * sigma", inverse="1/spread",
              scaled="the variance 0.5 * sigma**2 * maturity over the spread")
    return move["inverse"], move["scaled"]


def _gbm_prepare(external_assets, sigma, maturity, obligations=0.0, beta=None) -> dict:
    """What the kernel multiplies by, computed once for a positive sigma and maturity
    (else SpecError): ``1/-Ae`` (-1 where Ae is 0; one ulp away from zero where the
    nearest one leaves ``Ae * (1/-Ae)`` above -1, as for 49, so the ratio is -1 from
    ``x = Ae`` up), ``1/spread`` and ``half_variance/spread`` of the log move,
    ``0.5/pbar`` and ``Ae/(2 pbar)`` (pbar 1 where 0; 0 where Ae is), zero assets' mask."""
    external_assets = np.asarray(external_assets, dtype=float)
    sigma, maturity = np.asarray(sigma, dtype=float), np.asarray(maturity, dtype=float)
    if not ((sigma > 0).all() and (maturity > 0).all()):
        raise SpecError("sigma and time to maturity must be positive")
    inverse_spread, scaled_variance = _log_move(sigma, maturity)
    obligations = np.asarray(obligations, dtype=float)
    flat, safe = external_assets <= 0, np.where(obligations > 0, obligations, 1.0)
    negated = np.where(flat, -1.0, -external_assets)
    with np.errstate(over="ignore"):
        inverse = 1.0 / negated
        inverse = np.where(negated * inverse < 1.0, np.nextafter(inverse, -np.inf), inverse)
        return _in_range({"inverse_assets": inverse, "obligations": obligations,
                          "inverse_spread": inverse_spread, "half_inverse": 0.5 / safe,
                          "scaled_variance": scaled_variance,
                          "tail_scale": np.where(flat, 0.0, external_assets) / (2.0 * safe),
                          "flat": flat if flat.any() else None, "beta": beta},
                         inverse_assets="1/external assets", half_inverse="0.5/obligations",
                         tail_scale="external assets/(2 obligations)")


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
    return _gbm_kernel(np.asarray(equity, dtype=float),
                       **_gbm_prepare(external_assets, sigma, maturity))[0][()]


def _gbm_kernel(equity, inverse_assets, obligations, inverse_spread, scaled_variance,
                half_inverse, tail_scale, flat, beta):
    """Default probability ``(1 + e0)/2`` and endogenous recovery ``(e0 -
    e1)(equity + pbar)/(2 pbar) + (t1 - t0) Ae/(2 pbar)`` under the log-normal
    model, or given ``beta`` the before-maturity factor, by products with the
    constants of ``_gbm_prepare``: ``e = erf((hv + L)/s)``, ``t = erf((hv -
    L)/s) + e``, ``L = log(1 - x/Ae)`` at ``x`` = equity (row 0) and equity +
    pbar (row 1).  Both are 0 from ``x = Ae`` up, where ``L = -inf``; with
    zero obligations the rows agree and the recovery is +0.  Zero assets make
    ``e`` the solvency indicator as +-1 and the tail term 0."""
    # imported on first use, so that ``import neva`` does not load scipy
    from scipy.special import erf

    log = np.empty((2,) + np.broadcast(equity, inverse_assets, obligations,
                                       inverse_spread).shape)
    np.multiply(equity, inverse_assets, out=log[0, ...])
    np.multiply(np.add(equity, obligations, out=log[1, ...]), inverse_assets, out=log[1, ...])
    below = log > 0 if flat is not None else None  # x < 0
    with np.errstate(divide="ignore"):
        np.log1p(np.maximum(log, -1.0, out=log), out=log)
    log *= inverse_spread
    prob = log + scaled_variance
    erf(prob, out=prob)
    tail = erf(np.subtract(scaled_variance, log, out=log), out=log)
    tail += prob
    if flat is not None:  # no move: the solvency indicator
        prob = np.where(flat, np.where(below, 1.0, -1.0), prob)
    closed = np.subtract(prob[0], prob[1], out=prob[1, ...])
    closed *= equity * half_inverse + 0.5
    closed += np.subtract(tail[1], tail[0], out=tail[1, ...]) * tail_scale
    # fmax/fmin take 0 for the NaN of equal e times an overflowing equity/pbar
    np.fmin(np.fmax(closed, 0.0, out=closed), 1.0, out=closed)
    p_default = np.multiply(np.add(prob[0], 1.0, out=prob[0, ...]), 0.5, out=prob[0, ...])
    return (p_default, closed) if beta is None else _exante(p_default, closed, beta)


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
    return _gbm_kernel(np.asarray(equity, dtype=float),
                       **_gbm_prepare(external_assets, sigma, maturity, obligations))[1][()]


def _exante(default_probability, recovery, beta):
    """Before-maturity factor ``1 - p_default + beta * recovery``, in place."""
    if not (np.ndim(beta) == 0 and beta == 1.0):  # else beta * recovery is recovery
        recovery = np.asarray(recovery * beta)
    value = np.subtract(1.0, default_probability, out=default_probability)
    return np.clip(np.add(value, recovery, out=recovery), 0.0, 1.0, out=recovery)


def exante_en_gbm_interbank(equity, external_assets, sigma, maturity,
                            obligations, beta=1.0):
    """Before-maturity pro-rata factor under the log-normal shock model."""
    return _gbm_kernel(np.asarray(equity, dtype=float), **_gbm_prepare(
        external_assets, sigma, maturity, obligations, beta))[()]


def uniform_default_probability(equity, book_equity):
    """Default probability when the asset move is uniform on
    ``[-book_equity, 0]``: one minus the positive equity share of book value,
    clamped to ``[0, 1]``; that is, one minus the linear distress factor.
    Non-positive book equity means certain default.
    """
    return (1.0 - debtrank_interbank(equity, book_equity))[()]


def _uniform_prepare(book_equity, obligations, beta=None) -> dict:
    """The linear factor's constants, negations, and the obligations (1 where
    not positive) that the mean repayment is divided by."""
    book_equity = np.asarray(book_equity, dtype=float)
    obligations = np.asarray(obligations, dtype=float)
    return {**_debtrank_prepare(book_equity), "obligations": obligations,
            "negated_obligations": -obligations, "negated_book": -book_equity,
            "safe_obligations": np.where(obligations > 0, obligations, 1.0), "beta": beta}


def _uniform_kernel(equity, safe_book, worthless, obligations, negated_obligations,
                    negated_book, safe_obligations, beta):
    """The uniform-shock recovery, the share ``width/book`` of defaulting moves
    times their mean repayment ``(equity + pbar + (upper + lower)/2)/pbar``, each
    in [0, 1] (0 where the width is not positive); given ``beta``, the exante factor."""
    upper = -np.maximum(equity, 0.0)
    lower = np.maximum(negated_obligations - equity, negated_book)
    width = upper - lower
    value = (width / safe_book) * ((equity + obligations + 0.5 * (upper + lower))
                                   / safe_obligations)
    value = np.where(width > 0, value, 0.0)
    np.clip(value, 0.0, 1.0, out=value)
    if beta is None:
        return value
    p_default = _debtrank_kernel(equity, safe_book, worthless)
    return _exante(np.subtract(1.0, p_default, out=p_default), value, beta)


def uniform_endogenous_recovery(equity, book_equity, obligations):
    """Expected pro-rata repayment fraction under the uniform shock model.

    Integrates ``(equity + move + obligations) / obligations`` over the
    moves in ``[-book_equity, 0]`` that leave the borrower in default with
    residual assets; the integral is elementary and evaluated exactly.
    """
    return _uniform_kernel(np.asarray(equity, dtype=float),
                           **_uniform_prepare(book_equity, obligations))[()]


def exante_en_uniform_interbank(equity, book_equity, obligations, beta=1.0):
    """Before-maturity pro-rata factor under the uniform shock model."""
    return _uniform_kernel(np.asarray(equity, dtype=float),
                           **_uniform_prepare(book_equity, obligations, beta))[()]


def _number(name: str, value) -> float:
    if not _is_number(value, Real):
        raise SpecError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_unit_interval(name: str, value) -> float:
    value = _number(name, value)
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise SpecError(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_sigma(name: str, value):
    value = (_number(name, value) if np.ndim(value) == 0
             else tuple(_number(name, s) for s in value))
    if not all(np.isfinite(s) and s > 0 for s in np.atleast_1d(value)):
        raise SpecError(f"{name} must be positive and finite")
    return value


def _check_maturity(name: str, value) -> float:
    value = _number(name, value)
    if not np.isfinite(value) or value <= 0:
        raise SpecError(f"time to {name} must be positive; valuation at maturity "
                        "is the eisenberg_noe_haircut family (eisenberg_noe "
                        "when beta is 1)")
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


class Family(Record, eq=True):
    """One valuation family: its factor functions and what they read.

    ``factor`` maps equities to the borrower-side (or external-asset)
    factor; ``lender``, when present, is a lender-side multiplier.  Their
    ``reads`` name the keyword arguments each takes besides the equity:
    per-bank constants (``obligations``, ``book_equity``,
    ``external_assets``, per-bank ``sigma``) or spec parameters (the keys of
    ``PARAMETER_CHECKS``).  ``jump`` names the parameter that, below one,
    makes a factor jump at zero equity.  A factor with a ``kernel`` is
    ``kernel(equity, **prepare(**reads))``: what does not depend on the
    equity is prepared once, at bind.
    """

    factor: Callable
    reads: tuple = ()
    lender: Optional[Callable] = None
    lender_reads: tuple = ()
    jump: Optional[str] = None
    exante: bool = False
    prepare: Optional[Callable] = None
    kernel: Optional[Callable] = None

    @property
    def fields(self) -> tuple:
        """Everything the factors read, in order, without repeats."""
        return tuple(dict.fromkeys(self.reads + self.lender_reads))

    @property
    def params(self) -> tuple:
        """The spec parameters the family needs."""
        return tuple(name for name in self.fields if name in PARAMETER_CHECKS)

    def bind(self, values: Mapping) -> tuple:
        """``(factor, lender)``: the factor with every argument but the equity
        taken from ``values`` (its kernel with what ``prepare`` computes from
        them, when it has one) and the lender factor likewise, None without one."""
        reads = {name: values[name] for name in self.reads}
        factor = (partial(self.kernel, **self.prepare(**reads)) if self.kernel
                  else partial(self.factor, **reads))
        return factor, None if self.lender is None else partial(
            self.lender, **{name: values[name] for name in self.lender_reads})


_EN = {"prepare": _en_prepare, "kernel": _en_kernel}
INTERBANK_FAMILIES = {
    "eisenberg_noe": Family(en_interbank, ("obligations",), **_EN),
    "eisenberg_noe_haircut": Family(en_interbank, ("obligations", "beta"), jump="beta",
                                    **_EN),
    "rogers_veraart": Family(en_interbank, ("obligations",), rv_lender, ("beta",),
                             jump="beta", **_EN),
    "furfine": Family(furfine_interbank, ("recovery",), jump="recovery"),
    "linear_debtrank": Family(debtrank_interbank, ("book_equity",),
                              prepare=_debtrank_prepare, kernel=_debtrank_kernel),
    "exante_en_gbm": Family(exante_en_gbm_interbank,
                            ("external_assets", "sigma", "maturity", "obligations",
                             "beta"), exante=True, prepare=_gbm_prepare, kernel=_gbm_kernel),
    "exante_en_uniform": Family(exante_en_uniform_interbank,
                                ("book_equity", "obligations", "beta"), exante=True,
                                prepare=_uniform_prepare, kernel=_uniform_kernel),
}
EXTERNAL_FAMILIES = {
    "unit": Family(unit_external),
    "rogers_veraart": Family(rv_external, ("alpha",), jump="alpha"),
}


class ValuationSpec(Record, eq=True):
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
        if self.sigma is not None:
            _log_move(np.asarray(self.sigma, dtype=float), self.maturity)

    @classmethod
    def eisenberg_noe(cls) -> "ValuationSpec":
        return cls(interbank_kind="eisenberg_noe")

    @classmethod
    def eisenberg_noe_haircut(cls, beta: float) -> "ValuationSpec":
        return cls(interbank_kind="eisenberg_noe_haircut", beta=beta)

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

    def bind(self, net: FinancialNetwork, external_assets=None,
             **parameters) -> "BoundValuation":
        """Attach the spec to ``net``; ``external_assets``, an ``(n,)`` vector
        or a ``(batch, n)`` stack, stands in for the network's (row by row),
        and a ``(batch, 1)`` column of ``parameters`` for the spec's parameter
        of its name.  The factors' equity-independent constants are computed here."""
        if not set(parameters) <= set(self.family.params + self.external_family.params):
            raise SpecError(f"{self.interbank_kind} does not read all of {sorted(parameters)}")
        assets = (net.external_assets if external_assets is None
                  else np.asarray(external_assets, dtype=float))
        if assets.ndim not in (1, 2) or assets.shape[-1] != net.n:
            raise NetworkError(f"external assets of shape {assets.shape} for {net.n} banks")
        obligations = net.total_obligations()
        cash = assets - net.external_liabilities
        constants = {name: getattr(self, name) for name in PARAMETER_CHECKS}
        constants.update(
            parameters, obligations=obligations, external_assets=assets, cash=cash,
            sigma=None if self.sigma is None else self.sigma_vector(net.n),
            book_equity=cash + net.total_claims() - obligations)
        return BoundValuation(self, net, constants, self.family.bind(constants)
                              + self.external_family.bind(constants)[:1])


class BoundValuation(Record, hidden=("constants", "factors")):
    """A valuation spec attached to one network's balance-sheet constants.

    ``constants`` maps the per-bank obligations, book equities, external
    assets, cash (external assets less external liabilities) and (for the
    log-normal family) volatilities, and the spec parameters, to their
    values.  ``factors`` holds the borrower, lender (None when the family has
    none) and external factors, bound to them once (a kernel to what its
    family's ``prepare`` computes, held in its keywords), so factor vectors
    and the equity map can be evaluated repeatedly at different equities,
    row by row when bound to a ``(batch, n)`` stack of external assets.
    """

    spec: ValuationSpec
    net: FinancialNetwork
    constants: dict
    factors: tuple  # borrower, lender or None, external

    @property
    def book_equity(self) -> Optional[np.ndarray]:
        """Per-bank (or per-row) book equities; None on a valuation ``keep`` returned."""
        return self.constants.get("book_equity")

    def keep(self, rows) -> "BoundValuation":
        """Rows ``rows``, in order, of this valuation: what its map and kernels read (obligations,
        cash or external assets, kernel keywords), 2-D values gathered, per-bank ones passed on as
        the same objects, and the kernels bound to these.  This valuation stays as it was."""
        external = "cash" if self.spec.external_kind == "unit" else "external_assets"
        constants = {name: self.constants[name] for name in ("obligations", external)}
        for factor in filter(None, self.factors):
            constants.update(factor.keywords)
        constants = {name: value.take(rows, axis=0) if getattr(value, "ndim", 0) == 2
                     else value for name, value in constants.items()}
        return BoundValuation(self.spec, self.net, constants, tuple(
            None if factor is None else partial(
                factor.func, **{name: constants[name] for name in factor.keywords})
            for factor in self.factors))

    def external_factors(self, equities: np.ndarray) -> np.ndarray:
        return self.factors[2](equities)

    def lender_factors(self, equities: np.ndarray) -> Optional[np.ndarray]:
        """Per-lender multiplier, or None when the family ignores the lender."""
        lender = self.factors[1]
        return None if lender is None else lender(equities)

    def borrower_factors(self, equities: np.ndarray) -> np.ndarray:
        return self.factors[0](equities)

    def edge_discounts(self, equities: np.ndarray) -> np.ndarray:
        """Matrix of claim discount factors; entry ``[i, j]`` values bank i's
        claim on bank j (meaningful wherever such a claim exists).  A stack
        of equities gives one matrix per row."""
        return self.edge_factor(*np.indices((self.net.n,) * 2), equities)

    def edge_factor(self, lender, borrower, equities: np.ndarray):
        """Discount on bank ``lender``'s claim on bank ``borrower``: the
        borrower factor, times the lender factor when the family has one.
        Index arrays give one discount per (broadcast) pair, and a stack of
        equities one set per row."""
        equities = np.asarray(equities, dtype=float)
        discounts = np.take(self.borrower_factors(equities), borrower, axis=-1)
        lender_factors = self.lender_factors(equities)
        if lender_factors is None:
            return discounts
        return np.take(lender_factors, lender, axis=-1) * discounts

    def equity_map(self, equities: np.ndarray) -> np.ndarray:
        """One application of the self-consistent balance-sheet valuation:
        external assets at their external factor, claims at their discount
        factors, liabilities at face value; row by row on a stack, whose shape
        ``equities`` must have, as the sums run in place."""
        inflow = self.net.claim_sums(self.borrower_factors(equities))
        lender = self.lender_factors(equities)
        if lender is not None:
            inflow *= lender
        # summed like book_equity, (cash + claims) - obligations, so that a bank
        # without claims maps exactly to its book equity
        constants = self.constants
        inflow += (constants["cash"] if self.spec.external_kind == "unit"
                   else constants["external_assets"] * self.external_factors(equities)
                   - self.net.external_liabilities)
        inflow -= constants["obligations"]
        return inflow
