import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import neva
from neva import (FinancialNetwork, NetworkError, SpecError, ValuationSpec, debtrank_interbank,
                  en_interbank, exante_en_gbm_interbank, exante_en_uniform_interbank,
                  furfine_interbank,
                  gbm_default_probability, gbm_endogenous_recovery, greatest_solution,
                  rv_external, rv_interbank,
                  uniform_default_probability, uniform_endogenous_recovery)
from neva.valuation import EXTERNAL_FAMILIES, INTERBANK_FAMILIES

from conftest import (gbm_default_probability_quadrature, gbm_recovery_quadrature,
                      lattice_faults, uniform_recovery_quadrature)


# ---------------------------------------------------------------- at-maturity

def test_en_interbank_values():
    assert en_interbank(0.5, 2.0) == 1.0
    assert en_interbank(-1.0, 2.0) == 0.5
    assert en_interbank(-3.0, 2.0) == 0.0
    # no obligations: factor pinned at one for feasibility
    assert en_interbank(-5.0, 0.0) == 1.0
    assert en_interbank(5.0, 0.0) == 1.0


def test_en_interbank_haircut_values():
    # the haircut scales what a defaulted borrower pays, and nothing else
    assert en_interbank(0.5, 2.0, 0.5) == 1.0
    assert en_interbank(0.0, 2.0, 0.5) == 1.0
    assert en_interbank(-1.0, 2.0, 0.5) == 0.25
    assert en_interbank(-3.0, 2.0, 0.5) == 0.0
    assert en_interbank(-5.0, 0.0, 0.5) == 1.0  # no obligations: still one
    equities = np.array([[-1.0, -0.5, 0.0, 3.0], [-4.0, -1.5, -1e-300, 1.0]])
    obligations = np.array([[2.0, 0.0, 1.0, 1.0]])
    assert np.array_equal(en_interbank(equities, obligations, 1.0),
                          en_interbank(equities, obligations))
    assert np.array_equal(en_interbank(equities, obligations, 0.3),
                          np.where((equities < 0) & (obligations > 0), 0.3, 1.0)
                          * en_interbank(equities, obligations))


def test_rv_external_values():
    assert rv_external(0.0, 0.3) == 1.0  # boundary counts as solvent
    assert rv_external(-0.01, 0.3) == 0.3
    assert rv_external(5.0, 0.0) == 1.0


def test_rv_interbank_values():
    assert rv_interbank(1.0, 1.0, 0.5, 2.0) == 1.0
    assert rv_interbank(-1.0, 1.0, 0.5, 2.0) == 0.5
    assert rv_interbank(-1.0, -1.0, 0.5, 2.0) == 0.25  # 0.5 lender x 0.5 clearing


def test_furfine_values():
    assert furfine_interbank(-0.5, 0.0) == 0.0
    assert furfine_interbank(0.5, 0.0) == 1.0
    assert furfine_interbank(-0.5, 1.0) == 1.0  # unit recovery never discounts


def test_debtrank_values():
    assert debtrank_interbank(1.25, 2.5) == 0.5
    assert debtrank_interbank(-1.0, 2.5) == 0.0
    assert debtrank_interbank(2.5, 2.5) == 1.0
    assert debtrank_interbank(3.5, 2.5) == 1.0  # clamped above
    assert debtrank_interbank(0.5, 0.0) == 0.0  # insolvent at face value
    assert debtrank_interbank(0.5, -1.0) == 0.0


# ----------------------------------------------------------------- GBM family

def test_gbm_default_probability_median():
    for assets, sigma, tau in [(1.0, 1.0, 1.0), (3.0, 0.2, 0.1)]:
        equity = assets * (1.0 - math.exp(-0.5 * sigma * sigma * tau))
        assert gbm_default_probability(equity, assets, sigma, tau) == pytest.approx(0.5, abs=1e-14)


# external assets, 49 first, about 15% of which have a reciprocal r with
# assets * r < 1 in floating point
BOUNDARY_ASSETS = (49.0, *np.random.default_rng(49).uniform(0.01, 1e4, 40))


def test_gbm_default_probability_limits():
    assert gbm_default_probability(-1e9, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert gbm_default_probability(1.0, 1.0, 1.0, 1.0) == 0.0
    assert gbm_default_probability(2.0, 1.0, 1.0, 1.0) == 0.0
    # exactly 0 at and above the assets even where the log move is wide
    assert np.all(gbm_default_probability(np.array([1.0, 2.0, 1e300]), 1.0, 3.0, 10.0) == 0.0)
    # also at assets whose nearest reciprocal rounds short: 49 * (1/49) < 1
    for assets in BOUNDARY_ASSETS:
        equity = np.array([assets, np.nextafter(assets, np.inf), 2.0 * assets])
        assert np.all(gbm_default_probability(equity, assets, 3.0, 10.0) == 0.0), assets


def test_gbm_default_probability_degenerate_assets():
    assert gbm_default_probability(-0.5, 0.0, 1.0, 1.0) == 1.0
    assert gbm_default_probability(0.0, 0.0, 1.0, 1.0) == 0.0
    assert gbm_default_probability(0.5, 0.0, 1.0, 1.0) == 0.0


# times to maturity, and equities near 0, below -pbar, at Ae - pbar and at or
# above Ae (Ae = 1), for obligations pbar = 2 and for zero obligations
QUADRATURE_TAUS = (0.01, 1.0, 10.0)


def _quadrature_equities(pbar):
    return (-1e-9, 0.0, 1e-9, -0.5, 0.5, -pbar - 0.5, 1.0 - pbar, 1.0, 1.5)


def test_gbm_default_probability_matches_quadrature_spot():
    for tau in QUADRATURE_TAUS:
        for equity in _quadrature_equities(2.0):
            value = gbm_default_probability(equity, 1.0, 1.0, tau)
            oracle = gbm_default_probability_quadrature(equity, 1.0, 1.0, tau)
            assert value == pytest.approx(oracle, abs=1e-8), (tau, equity)


def test_gbm_recovery_trivial_zeros():
    assert gbm_endogenous_recovery(1.0, 1.0, 1.0, 1.0, 2.0) == 0.0  # E >= assets
    assert np.all(gbm_endogenous_recovery(np.array([1.0, 2.0]), 1.0, 3.0, 10.0, 2.0) == 0.0)
    assert gbm_endogenous_recovery(-1e9, 1.0, 1.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert gbm_endogenous_recovery(-0.5, 1.0, 1.0, 1.0, 0.0) == 0.0  # no obligations
    for assets in BOUNDARY_ASSETS:  # nothing to lose at the assets: the factor is 1
        assert gbm_endogenous_recovery(assets, assets, 3.0, 10.0, 2.0) == 0.0, assets
        assert exante_en_gbm_interbank(assets, assets, 3.0, 10.0, 2.0, 0.5) == 1.0, assets


def test_gbm_recovery_matches_quadrature_spot():
    for tau in QUADRATURE_TAUS:
        for pbar in (2.0, 0.0):
            for equity in _quadrature_equities(pbar):
                value = gbm_endogenous_recovery(equity, 1.0, 1.0, tau, pbar)
                oracle = gbm_recovery_quadrature(equity, 1.0, 1.0, tau, pbar)
                assert value == pytest.approx(oracle, abs=1e-8), (tau, pbar, equity)
    # equity + pbar at the assets, where the log move is wide
    for pbar in (0.3, 10.0, 100.0):
        value = gbm_endogenous_recovery(49.0 - pbar, 49.0, 3.0, 10.0, pbar)
        oracle = gbm_recovery_quadrature(49.0 - pbar, 49.0, 3.0, 10.0, pbar)
        assert value == pytest.approx(oracle, abs=1e-8), pbar


def test_gbm_recovery_degenerate_assets_is_clearing_fraction():
    assert gbm_endogenous_recovery(-0.5, 0.0, 1.0, 1.0, 2.0) == pytest.approx(0.75)
    assert gbm_endogenous_recovery(0.5, 0.0, 1.0, 1.0, 2.0) == 0.0
    assert gbm_endogenous_recovery(-3.0, 0.0, 1.0, 1.0, 2.0) == 0.0


def test_gbm_parameter_validation():
    with pytest.raises(SpecError):
        gbm_default_probability(0.0, 1.0, -1.0, 1.0)
    with pytest.raises(SpecError):
        gbm_default_probability(0.0, 1.0, 1.0, 0.0)


def test_exante_factor_composition():
    # no default risk: equity above the external assets
    assert exante_en_gbm_interbank(2.0, 1.0, 1.0, 1.0, 2.0, beta=1.0) == 1.0
    # beta = 0 discounts by the default probability alone
    pd = gbm_default_probability(0.2, 1.0, 1.0, 1.0)
    value = exante_en_gbm_interbank(0.2, 1.0, 1.0, 1.0, 2.0, beta=0.0)
    assert value == pytest.approx(1.0 - pd, abs=1e-15)


def test_exante_matches_monte_carlo_average():
    # the factor is the expectation of the clearing factor at maturity
    assets, sigma, tau, pbar = 1.0, 1.0, 1.0, 2.0
    rng = np.random.default_rng(12345)
    moves = assets * (np.exp(sigma * rng.standard_normal(1_000_000)
                             - 0.5 * sigma * sigma * tau) - 1.0)
    for equity in (-2.5, -1.5, -0.5, 0.0, 0.4, 1.5):
        terminal = equity + moves
        payoff = np.where(terminal >= 0, 1.0,
                          np.clip((terminal + pbar) / pbar, 0.0, 1.0))
        estimate = payoff.mean()
        stderr = payoff.std(ddof=1) / math.sqrt(payoff.size)
        value = exante_en_gbm_interbank(equity, assets, sigma, tau, pbar, beta=1.0)
        assert abs(value - estimate) <= 3.0 * stderr + 1e-12


def test_exante_converges_to_clearing_factor_at_short_maturity():
    # pointwise limit away from the two kink points 0 and -pbar
    assets, pbar, sigma = 1.0, 2.0, 1.0
    grid = np.linspace(-3.0, 3.0, 601)
    keep = (np.abs(grid) > 0.01) & (np.abs(grid + pbar) > 0.01)
    grid = grid[keep]
    short = exante_en_gbm_interbank(grid, assets, sigma, 1e-6, pbar, beta=1.0)
    limit = en_interbank(grid, pbar)
    assert np.max(np.abs(short - limit)) < 1e-3


def test_gbm_default_probability_monotone_in_equity():
    grid = np.linspace(-5.0, 2.0, 301)
    pd = gbm_default_probability(grid, 1.0, 1.0, 1.0)
    assert np.all(np.diff(pd) <= 1e-15)
    # shifting equity up by any obligation lowers the default probability
    for pbar in (0.0, 0.5, 2.0):
        shifted = gbm_default_probability(grid + pbar, 1.0, 1.0, 1.0)
        assert np.all(pd - shifted >= -1e-15)


# ------------------------------------------------------------- uniform family

def test_uniform_default_probability_values():
    assert uniform_default_probability(1.0, 2.0) == 0.5
    assert uniform_default_probability(-0.5, 2.0) == 1.0
    assert uniform_default_probability(2.0, 2.0) == 0.0
    assert uniform_default_probability(3.0, 2.0) == 0.0  # clamped
    assert uniform_default_probability(0.5, 0.0) == 1.0
    assert uniform_default_probability(0.5, -1.0) == 1.0


def test_uniform_recovery_matches_integral():
    for equity in (0.5, -0.5):
        value = uniform_endogenous_recovery(equity, 2.0, 1.0)
        oracle = uniform_recovery_quadrature(equity, 2.0, 1.0)
        assert value == pytest.approx(oracle, abs=1e-10)


def test_uniform_recovery_empty_region():
    # below -pbar nothing is recoverable
    assert uniform_endogenous_recovery(-1.0, 2.0, 1.0) == 0.0
    assert uniform_endogenous_recovery(-5.0, 2.0, 1.0) == 0.0
    assert uniform_endogenous_recovery(0.5, 0.0, 1.0) == 0.0
    assert uniform_endogenous_recovery(0.5, 2.0, 0.0) == 0.0


def test_uniform_family_at_zero_beta_equals_debtrank():
    book, pbar = 2.0, 1.0
    grid = np.linspace(-pbar - book, book, 501)  # the whole lattice interval
    mine = exante_en_uniform_interbank(grid, book, pbar, beta=0.0)
    reference = debtrank_interbank(grid, book)
    assert np.max(np.abs(mine - reference)) <= 1e-12


def test_solvency_boundary_counts_as_solvent():
    assert en_interbank(0.0, 2.0) == 1.0
    assert furfine_interbank(0.0, 0.0) == 1.0
    assert rv_external(0.0, 0.0) == 1.0


# the arguments after the equity of each public factor function
FACTOR_ARGUMENTS = {
    "en_interbank": (2.0, 0.5), "unit_external": (), "rv_external": (0.5,),
    "rv_lender": (0.5,), "rv_interbank": (-0.5, 0.5, 2.0), "furfine_interbank": (0.3,),
    "debtrank_interbank": (2.0,), "gbm_default_probability": (3.0, 0.4, 1.0),
    "gbm_endogenous_recovery": (3.0, 0.4, 1.0, 2.0),
    "exante_en_gbm_interbank": (3.0, 0.4, 1.0, 2.0, 0.5),
    "uniform_default_probability": (2.0,), "uniform_endogenous_recovery": (2.0, 2.0),
    "exante_en_uniform_interbank": (2.0, 2.0, 0.5),
}


@pytest.mark.parametrize("name", FACTOR_ARGUMENTS)
def test_factor_functions_return_a_float64_for_a_scalar(name):
    # every public factor function, and no other: numpy's scalar for a
    # scalar equity, an array of the equity's shape for an array
    assert set(FACTOR_ARGUMENTS) == {
        key for key in neva.valuation.__all__ if inspect.isfunction(getattr(neva, key))}
    function, arguments = getattr(neva, name), FACTOR_ARGUMENTS[name]
    assert type(function(-0.5, *arguments)) is np.float64
    out = function(np.linspace(-3.0, 3.0, 6).reshape(2, 3), *arguments)
    assert type(out) is np.ndarray and out.shape == (2, 3)


# ------------------------------------------------------------------- the spec

def test_spec_validation():
    with pytest.raises(SpecError):
        ValuationSpec(interbank_kind="nope")
    with pytest.raises(SpecError):
        ValuationSpec(interbank_kind="eisenberg_noe", external_kind="nope")
    with pytest.raises(SpecError):
        ValuationSpec.rogers_veraart(alpha=1.5, beta=0.5)
    with pytest.raises(SpecError):
        ValuationSpec.furfine(recovery=-0.1)
    with pytest.raises(SpecError):
        ValuationSpec(interbank_kind="rogers_veraart")  # beta missing
    with pytest.raises(SpecError):
        ValuationSpec(interbank_kind="eisenberg_noe", beta=0.5)  # stray param
    with pytest.raises(SpecError):
        ValuationSpec(interbank_kind="eisenberg_noe_haircut")  # beta missing
    with pytest.raises(SpecError):
        ValuationSpec.eisenberg_noe_haircut(beta=1.5)
    with pytest.raises(SpecError):
        ValuationSpec(interbank_kind=["eisenberg_noe"])  # not a name
    with pytest.raises(SpecError):
        ValuationSpec.exante_en_gbm(sigma=1.0, maturity=0.0)  # served by EN
    with pytest.raises(SpecError):
        ValuationSpec.exante_en_gbm(sigma=-1.0, maturity=1.0)
    spec = ValuationSpec.exante_en_gbm(sigma=(0.1, 0.2, 0.3), maturity=1.0)
    assert np.allclose(spec.sigma_vector(3), [0.1, 0.2, 0.3])
    with pytest.raises(SpecError):
        spec.sigma_vector(4)


@pytest.mark.parametrize("sigma, maturity, message", [
    (1.0, 1e308, "the spread sqrt(2 * maturity) * sigma leaves the float range (inf)"),
    (1e-200, 1e-300, "1/spread leaves the float range (inf)"),  # the spread is 0
    (1e-160, 1e-300, "1/spread leaves the float range (inf)"),  # it is subnormal
    (1e200, 1.0, "the variance 0.5 * sigma**2 * maturity over the spread leaves the "
                 "float range (inf)"),
    ((0.3, 1e-200), 1e-300, "banks[1]: 1/spread leaves the float range (inf)"),
])
def test_log_move_out_of_the_float_range_is_rejected(sigma, maturity, message):
    # sigma and maturity each admissible: the spread sqrt(2 tau) sigma
    # overflows or underflows, or the variance does; a NaN factor before
    with pytest.raises(SpecError) as err:
        ValuationSpec.exante_en_gbm(sigma, maturity)
    assert str(err.value) == message
    with pytest.raises(SpecError) as err:
        gbm_default_probability(0.0, 1.0, np.array(sigma), maturity)
    assert str(err.value) == message
    ValuationSpec.exante_en_gbm((0.3, 1e-100), 1e-100)  # a small spread is no fault


@pytest.mark.parametrize("compute, message", [
    (lambda: en_interbank(0.0, 1e-310), "1/obligations leaves the float range (inf)"),
    (lambda: exante_en_gbm_interbank(0.0, 1.0, 0.3, 1.0, 1e-310),
     "0.5/obligations leaves the float range (inf)"),
    (lambda: gbm_endogenous_recovery(np.array([-1.0, 0.0]), 1e9, 0.3, 1.0, 1e-300),
     "external assets/(2 obligations) leaves the float range (inf)"),
    (lambda: gbm_default_probability(0.0, [1.0, 5e-324], 0.3, 1.0),
     "banks[1]: 1/external assets leaves the float range (-inf)"),
])
def test_closed_forms_reject_constants_beyond_the_float_range(compute, message):
    # a NaN factor before: 0 x inf in the kernel, with an overflow warning
    with pytest.raises(SpecError) as err:
        compute()
    assert str(err.value) == message


def test_bind_names_the_bank_whose_constants_leave_the_float_range():
    # bank A owes 1e-310: its reciprocal obligations overflow; under the
    # log-normal family so do 0.5/pbar and, for B's assets, Ae/(2 pbar)
    net = FinancialNetwork(["A", "B"], [1.0, 1.0], [0.0, 0.0], [[0.0, 1e-310], [0.0, 0.0]])
    for spec, message in ((ValuationSpec.eisenberg_noe(), "1/obligations"),
                          (ValuationSpec.exante_en_gbm(0.3, 1.0), "0.5/obligations")):
        with pytest.raises(SpecError) as err:
            greatest_solution(net, spec)
        assert str(err.value) == f"banks[0]: {message} leaves the float range (inf)"
    far = FinancialNetwork(["A", "B"], [1.0, 1e9], [0.0, 0.0], [[0.0, 0.0], [1e-300, 0.0]])
    with pytest.raises(SpecError, match=r"^banks\[1\]: external assets/\(2 obligations\)"):
        ValuationSpec.exante_en_gbm(0.3, 1.0).bind(far)


def test_uniform_recovery_forms_no_product_of_amounts():
    # pbar * book underflowed to 0 before (NaN), and book**2 overflowed
    # (inf - inf, NaN); the share of defaulting moves times their mean
    # repayment fraction is pbar / (2 book) in both cases
    assert uniform_endogenous_recovery(0.0, 1e-200, 1e-200) == 0.5
    assert uniform_endogenous_recovery(2e154, 1e155, 1e150) == pytest.approx(5e-6, rel=1e-12)


def test_bind_and_sigma_vector_reject_what_the_spec_does_not_read(ring):
    with pytest.raises(SpecError, match=r"^eisenberg_noe does not read all of \['beta'\]$"):
        ValuationSpec.eisenberg_noe().bind(ring, beta=np.ones((2, 1)))
    with pytest.raises(NetworkError, match=r"^external assets of shape \(2,\) for 3 banks$"):
        ValuationSpec.eisenberg_noe().bind(ring, [1.0, 2.0])
    with pytest.raises(NetworkError, match=r"^external assets of shape \(1, 1, 3\)"):
        ValuationSpec.eisenberg_noe().bind(ring, np.ones((1, 1, 3)))
    with pytest.raises(SpecError, match="^furfine has no volatility parameter$"):
        ValuationSpec.furfine(0.5).sigma_vector(3)


def test_continuity_metadata():
    assert ValuationSpec.eisenberg_noe().continuous_from_below
    assert ValuationSpec.eisenberg_noe_haircut(1.0).continuous_from_below
    assert not ValuationSpec.eisenberg_noe_haircut(0.5).continuous_from_below
    assert ValuationSpec.linear_debtrank().continuous_from_below
    assert ValuationSpec.exante_en_gbm(1.0, 1.0).continuous_from_below
    assert ValuationSpec.exante_en_uniform(0.5).continuous_from_below
    assert not ValuationSpec.furfine(0.0).continuous_from_below
    assert ValuationSpec.furfine(1.0).continuous_from_below
    assert not ValuationSpec.rogers_veraart(0.5, 0.5).continuous_from_below
    assert ValuationSpec.rogers_veraart(1.0, 1.0).continuous_from_below


def test_edge_factor_matches_closed_forms(ring):
    equities = np.array([0.5, -0.2, 0.3])
    pbar, book = ring.total_obligations(), ring.book_equity()
    assets = ring.external_assets
    closed_forms = {
        "eisenberg_noe": (ValuationSpec.eisenberg_noe(),
                          lambda i, j: en_interbank(equities[j], pbar[j])),
        "eisenberg_noe_haircut": (ValuationSpec.eisenberg_noe_haircut(0.4),
                                  lambda i, j: en_interbank(equities[j], pbar[j], 0.4)),
        "rogers_veraart": (ValuationSpec.rogers_veraart(0.4, 0.6),
                           lambda i, j: rv_interbank(equities[i], equities[j],
                                                     0.6, pbar[j])),
        "furfine": (ValuationSpec.furfine(0.2),
                    lambda i, j: furfine_interbank(equities[j], 0.2)),
        "linear_debtrank": (ValuationSpec.linear_debtrank(),
                            lambda i, j: debtrank_interbank(equities[j], book[j])),
        "exante_en_gbm": (ValuationSpec.exante_en_gbm(0.5, 2.0),
                          lambda i, j: exante_en_gbm_interbank(
                              equities[j], assets[j], 0.5, 2.0, pbar[j], 1.0)),
        "exante_en_uniform": (ValuationSpec.exante_en_uniform(0.7),
                              lambda i, j: exante_en_uniform_interbank(
                                  equities[j], book[j], pbar[j], 0.7)),
    }
    assert set(closed_forms) == set(INTERBANK_FAMILIES)
    for kind, (spec, closed_form) in closed_forms.items():
        assert spec.interbank_kind == kind
        bound = spec.bind(ring)
        discounts = bound.edge_discounts(equities)
        for lender, borrower in [(0, 1), (1, 2), (2, 0)]:
            expected = float(closed_form(lender, borrower))
            assert bound.edge_factor(lender, borrower, equities) == pytest.approx(expected)
            assert discounts[lender, borrower] == pytest.approx(expected)


# ------------------------------------------------------------- feasibility

def all_shipped_specs():
    return [
        ValuationSpec.eisenberg_noe(),
        ValuationSpec.eisenberg_noe_haircut(0.5),
        ValuationSpec.rogers_veraart(0.5, 0.5),
        ValuationSpec.furfine(0.0),
        ValuationSpec.linear_debtrank(),
        ValuationSpec.exante_en_gbm(1.0, 1.0),
        ValuationSpec.exante_en_gbm(0.2, 0.1),
        ValuationSpec.exante_en_uniform(0.5),
        ValuationSpec.exante_en_uniform(0.0),
    ]


def test_feasibility_probe_passes_all_families(ring, open_chain):
    # a family added to the table must be checked here too
    assert {s.interbank_kind for s in all_shipped_specs()} == set(INTERBANK_FAMILIES)
    assert {s.external_kind for s in all_shipped_specs()} == set(EXTERNAL_FAMILIES)
    for net in (ring, open_chain):
        for spec in all_shipped_specs():
            assert lattice_faults(spec, net) == []


def test_error_function_accuracy_against_mpmath():
    # the closed forms rely on erf being good to well under 1e-12 absolute
    import mpmath
    from scipy.special import erf
    grid = np.concatenate([np.linspace(-6, 6, 121), [-25.0, 25.0]])
    with mpmath.workdps(40):
        for x in grid:
            assert abs(float(erf(x)) - float(mpmath.erf(mpmath.mpf(x)))) < 1e-13


def test_gbm_closed_forms_continuous_at_indicator_boundaries():
    # the indicator gates switch at equity = assets and assets - obligations;
    # both functions approach the gated-off value smoothly there
    assets, sigma, tau, pbar = 1.5, 0.7, 0.8, 0.6
    for boundary in (assets, assets - pbar):
        below = boundary - 1e-9
        pd_below = gbm_default_probability(below, assets, sigma, tau)
        pd_at = gbm_default_probability(boundary, assets, sigma, tau)
        assert abs(pd_below - pd_at) < 1e-6
        rho_below = gbm_endogenous_recovery(below, assets, sigma, tau, pbar)
        rho_at = gbm_endogenous_recovery(boundary, assets, sigma, tau, pbar)
        assert abs(rho_below - rho_at) < 1e-6


def test_degenerate_external_assets_bank_stays_feasible():
    # a bank with no external assets takes the at-maturity branch; the
    # whole family remains a feasible curve around it
    net = FinancialNetwork(["A", "B"], [0.0, 2.0], [0.1, 0.5],
                           np.array([[0.0, 0.4], [0.0, 0.0]]))
    spec = ValuationSpec.exante_en_gbm(sigma=1.0, maturity=1.0)
    assert lattice_faults(spec, net) == []


def test_scipy_special_is_imported_on_first_closed_form(ring):
    # a fresh interpreter: `import neva` leaves scipy.special unloaded, and
    # the first log-normal factor loads it and gives the closed-form values
    child = """
import json, math, sys
import numpy as np
import neva
loaded_by_import = "scipy.special" in sys.modules
net = neva.FinancialNetwork(["A", "B", "C"], [10.0, 5.0, 3.0], [9.0, 4.0, 2.0],
                            [[0.0, 0.0, 0.5], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
report = neva.greatest_solution(net, neva.ValuationSpec.exante_en_gbm(0.3, 1.0))
equity, assets, sigma, tau = report.solution, net.external_assets, 0.3, 1.0
by_math_erf = [0.5 * (1.0 + math.erf((math.log1p(-e / a) + 0.5 * sigma * sigma * tau)
                                     / (math.sqrt(2.0 * tau) * sigma)))
               for e, a in zip(equity, assets)]
print(json.dumps({"loaded_by_import": loaded_by_import,
                  "loaded_after_solve": "scipy.special" in sys.modules,
                  "solution": report.solution.tolist(),
                  "probability": neva.gbm_default_probability(
                      equity, assets, sigma, tau).tolist(),
                  "by_math_erf": by_math_erf}))
"""
    src = os.path.dirname(os.path.dirname(neva.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded_by_import"] is False
    assert out["loaded_after_solve"] is True
    spec = ValuationSpec.exante_en_gbm(0.3, 1.0)
    assert out["solution"] == greatest_solution(ring, spec).solution.tolist()
    assert np.allclose(out["probability"], out["by_math_erf"], rtol=0, atol=1e-15)
