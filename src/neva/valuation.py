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

import inspect
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping, Optional, Union

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
    """Raised for valuation parameters outside their admissible range."""


def _en_prepare(obligations, beta=1.0) -> dict:
    """Reciprocal obligations (0 for a bank owing nothing) and, unless ``beta``
    is 1, the haircut on what a defaulted borrower pays (1 without debt)."""
    obligations = np.asarray(obligations, dtype=float)
    has_debt = obligations > 0
    return {"reciprocal": np.divide(1.0, obligations, out=np.zeros(obligations.shape),
                                    where=has_debt),
            "haircut": None if np.all(np.equal(beta, 1.0)) else np.where(has_debt, beta, 1.0)}


def _en_kernel(equity, reciprocal, haircut):
    factor = np.asarray(equity * reciprocal)  # 0-d for scalars: the steps below work in place
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


def _gbm_prepare(external_assets, sigma, maturity, obligations=0.0, beta=None) -> dict:
    """``-Ae`` (-1 where zero), half variance and spread of the log move, safe
    and doubled obligations (1 and 2 where zero) and the mask of zero assets."""
    external_assets = np.asarray(external_assets, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise SpecError("sigma must be positive")
    if np.any(np.asarray(maturity) <= 0):
        raise SpecError("time to maturity must be positive")
    obligations = np.asarray(obligations, dtype=float)
    flat, safe = external_assets <= 0, np.where(obligations > 0, obligations, 1.0)
    return {"external_assets": external_assets, "obligations": obligations,
            "negated_assets": np.where(flat, -1.0, -external_assets),
            "half_variance": 0.5 * sigma * sigma * maturity,
            "spread": np.sqrt(2.0 * maturity) * sigma, "flat": flat if flat.any() else None,
            "safe_obligations": safe, "doubled_obligations": 2.0 * safe, "beta": beta}


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


def _gbm_kernel(equity, external_assets, obligations, negated_assets, half_variance, spread,
                flat, safe_obligations, doubled_obligations, beta):
    """Default probability and endogenous recovery under the log-normal model,
    or given ``beta`` the before-maturity factor, from the probability ``(1 +
    erf((hv + L)/s))/2`` and tail ``erf((hv + L)/s) + erf((hv - L)/s)``, ``L =
    log(1 - x/Ae)``, at ``x`` = equity (row 0) and equity + obligations (row
    1).  Both are 0 from ``x = Ae`` up, where the ratio is clamped to ``L =
    -inf``; with zero obligations the rows agree and the closed form is +0."""
    # imported on first use, so that ``import neva`` does not load scipy
    from scipy.special import erf

    x = np.empty((2,) + np.broadcast(equity, obligations, negated_assets, spread).shape)
    np.copyto(x[0, ...], equity)
    np.add(equity, obligations, out=x[1, ...])
    log = x / negated_assets
    with np.errstate(divide="ignore"):
        np.log1p(np.maximum(log, -1.0, out=log), out=log)
    prob = log + half_variance
    erf(np.divide(prob, spread, out=prob), out=prob)
    tail = np.subtract(half_variance, log, out=log)
    erf(np.divide(tail, spread, out=tail), out=tail)
    tail += prob
    np.multiply(np.add(prob, 1.0, out=prob), 0.5, out=prob)
    if flat is not None:  # no move: the solvency indicator
        prob = np.where(flat, np.where(x < 0, 1.0, 0.0), prob)
    p_default, closed = prob[0, ...], np.subtract(prob[0], prob[1], out=prob[1, ...])
    closed *= equity / safe_obligations + 1.0
    closed += (np.subtract(tail[1], tail[0], out=tail[1, ...]) * external_assets
               / doubled_obligations)
    if flat is not None:  # point mass at zero move: at-maturity pro-rata recovery
        point_mass = np.where(equity < 0, np.clip(x[1, ...] / safe_obligations, 0.0, 1.0), 0.0)
        closed = np.where(flat, point_mass, closed)
    np.clip(closed, 0.0, 1.0, out=closed)
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
    """The linear factor's constants, negations, and the divisors ``pbar *
    book`` and ``2 * pbar * book`` (1 unless both are positive)."""
    book_equity = np.asarray(book_equity, dtype=float)
    obligations = np.asarray(obligations, dtype=float)
    ok = (book_equity > 0) & (obligations > 0)
    return {**_debtrank_prepare(book_equity), "obligations": obligations,
            "negated_obligations": -obligations, "negated_book": -book_equity,
            "scale": np.where(ok, obligations * book_equity, 1.0),
            "doubled_scale": np.where(ok, 2.0 * obligations * book_equity, 1.0), "beta": beta}


def _uniform_kernel(equity, safe_book, worthless, obligations, negated_obligations,
                    negated_book, scale, doubled_scale, beta):
    """The uniform-shock recovery (0 without a mask where book equity or
    obligations are not positive: the width is not positive there); given
    ``beta``, the before-maturity factor."""
    upper = -np.maximum(equity, 0.0)
    lower = np.maximum(negated_obligations - equity, negated_book)
    width = upper - lower
    value = ((equity + obligations) / scale * width
             + (upper * upper - lower * lower) / doubled_scale)
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
                        "is the eisenberg_noe_haircut family (eisenberg_noe "
                        "when beta is 1)")
    return value


def _check_variance(sigma, maturity) -> None:
    """Reject a (largest) ``sigma`` and a ``maturity``, each admissible, whose
    log-normal variance ``0.5 * sigma**2 * maturity`` overflows in the order
    the kernel computes it."""
    sigma = float(np.max(sigma))
    if 0.5 * sigma * sigma * maturity == np.inf:
        raise SpecError(f"sigma {sigma:g} with time to maturity {maturity:g} overflows "
                        "the log-normal variance 0.5 * sigma**2 * maturity")


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

    @cached_property
    def kernels(self) -> tuple:
        """``(function, reads)`` pairs: the factor, or its kernel (reading what
        ``prepare`` returns) when it has one, then any lender factor."""
        factor = ((self.kernel, tuple(inspect.signature(self.kernel).parameters)[1:])
                  if self.kernel else (self.factor, self.reads))
        return (factor,) + (() if self.lender is None else ((self.lender, self.lender_reads),))

    def prepare_values(self, values: Mapping) -> dict:
        """``values`` and what ``prepare`` computes from the ``reads`` in them."""
        return {**values, **(self.prepare(**{name: values[name] for name in self.reads})
                             if self.prepare else {})}

    def bind(self, values: Mapping) -> tuple:
        """The functions of ``kernels`` with every argument but the equity
        taken from ``values``, which hold what ``prepare_values`` adds."""
        return tuple(partial(function, **{name: values[name] for name in reads})
                     for function, reads in self.kernels)


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
        if self.sigma is not None:
            _check_variance(self.sigma, self.maturity)

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
        return BoundValuation(self, net, self.family.prepare_values(constants))


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

    ``constants`` maps every name a factor or the equity map can read to its
    value: the per-bank obligations, book equities, external assets, cash
    (external assets less external liabilities) and (for the log-normal
    family) volatilities, the spec parameters, and what the family's
    ``prepare`` computes from them.  The family's kernels are bound to them
    once, so factor vectors and the equity map can be evaluated repeatedly at
    different equities, row by row when bound to a ``(batch, n)`` stack of
    external assets.
    """

    spec: ValuationSpec
    net: FinancialNetwork
    constants: dict = field(repr=False)
    per_row: tuple = field(default=(), repr=False)  # of a stack(): what keep() gathers
    book_equity: np.ndarray = field(init=False)  # None on a stack()
    _borrower: Callable = field(init=False, repr=False)
    _lender: Optional[Callable] = field(init=False, repr=False)
    _external: Callable = field(init=False, repr=False)

    def __post_init__(self):
        constants = self.constants
        borrower, *lender = self.spec.family.bind(constants)
        (external,) = self.spec.external_family.bind(constants)
        vars(self).update(  # frozen: fill the init=False fields directly
            book_equity=constants.get("book_equity"), _borrower=borrower,
            _lender=lender[0] if lender else None, _external=external)

    @cached_property
    def _map_reads(self) -> tuple:
        """The constants the equity map reads."""
        return tuple(name for family in (self.spec.family, self.spec.external_family)
                     for _, reads in family.kernels for name in reads) + (
            "obligations", "cash" if self.spec.external_kind == "unit" else "external_assets")

    def stack(self, count: int) -> "BoundValuation":
        """The solver's private valuation of a ``count``-row stack of equities:
        the constants its equity map reads, each with the stack's shape, so
        that every elementwise operand has it (numpy runs an operand broadcast
        from ``(1, n)`` one row at a time).  Per-row constants (2-D) are
        shared with this binding (copied only where not contiguous, as a
        broadcast is) and per-bank ones shared by every row tiled; ``keep``
        then drops rows, the one change a binding takes."""
        constants = {name: self.constants[name] for name in self._map_reads}
        laid_out = {name: np.ascontiguousarray(np.broadcast_to(value, (count, value.shape[-1])))
                    for name, value in constants.items() if getattr(value, "ndim", 0)}
        return BoundValuation(self.spec, self.net, {**constants, **laid_out}, tuple(
            name for name in laid_out if constants[name].ndim == 2))

    def keep(self, rows) -> None:
        """Keep rows ``rows`` (ascending) of a ``stack``, in order: the per-row
        constants are gathered to them, the tiles cut to as many rows, and the
        bound kernels read these from then on; nothing is bound anew."""
        constants = self.constants
        for name, value in constants.items():
            if name in self.per_row:
                constants[name] = value.take(rows, axis=0)
            elif isinstance(value, np.ndarray):
                constants[name] = value[:len(rows)]
        for kernel in (self._borrower, self._lender, self._external):
            if kernel is not None:  # a partial calls with its live keywords
                kernel.keywords.update({name: constants[name] for name in kernel.keywords})

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
        factors, liabilities at face value; row by row on a stack, whose shape
        ``equities`` must have, as the sums run in place."""
        inflow = self.borrower_factors(equities) @ self.net.interbank_liabilities
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
