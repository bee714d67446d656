"""The exact oracle of the pro-rata families, and the certified Monte Carlo
stop checked against it: greatest solves at or above the exact greatest
equities and tight re-solves within rounding of them; per-sample certified
bounds that cover each sample's distance to them; a bias bound that covers
what the early stops add to the mean, at most ``BIAS_SHARE`` of each bank's
standard error; and drops only where a sample neither certifies nor meets the
default stop.  ``--hypothesis-profile neva-deep``
runs these properties at depth."""
import warnings
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from neva import (FinancialNetwork, SolveConfig, ValuationSpec, greatest_solution,
                  monte_carlo_global_valuation)
from neva import solver
from neva.valuation import BoundValuation
from neva.solver import BIAS_SHARE, _certify, _scaled_epsilon

from conftest import exact_greatest
from test_properties import _monte_carlo_network, networks, sparse_networks

PIECEWISE_LINEAR = {  # the specs of each family of the exact oracle
    "eisenberg_noe": st.just(ValuationSpec.eisenberg_noe()),
    "eisenberg_noe_haircut": st.just(ValuationSpec.eisenberg_noe_haircut(0.5)),
    "furfine": st.just(ValuationSpec.furfine(0.4)),
    "linear_debtrank": st.just(ValuationSpec.linear_debtrank()),
    "rogers_veraart": st.builds(ValuationSpec.rogers_veraart,  # alpha, beta
                                st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
}


def _rounding(bound) -> np.ndarray:
    """1e-13 of each row's scale, a column: the float map's rounding allowance."""
    return _scaled_epsilon(bound.book_equity, bound.net.total_obligations(),
                           1e-13)[..., np.newaxis]


@pytest.mark.parametrize("family", PIECEWISE_LINEAR)
@given(networks() | sparse_networks(), st.data())
def test_the_greatest_solve_lies_above_the_exact_answer(family, net, data):
    # the exact answer reads its regime off a solve at 1e-15 of the scale; the
    # default solve stops above it, and that tight solve near it, each within
    # rounding (a bank at its fixed point rounds up to an ulp of the scale below);
    # each family draws its own examples
    spec = data.draw(PIECEWISE_LINEAR[family])
    exact = exact_greatest(net, spec)
    rounding = Fraction(float(_rounding(spec.bind(net))[0]))
    greatest = greatest_solution(net, spec)
    assert all(Fraction(g) >= e - rounding for g, e in zip(greatest.solution.tolist(), exact))
    tight = greatest_solution(net, spec, SolveConfig(epsilon=max(1e-5 * greatest.epsilon,
                                                                 5e-324)))
    assert all(abs(Fraction(t) - e) <= rounding for t, e in zip(tight.solution.tolist(), exact))


@given(networks() | sparse_networks(), st.sampled_from([1.0, 0.5]), st.floats(0.05, 1.0),
       st.floats(0.1, 2.0), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 2, 5]))
@example(_monte_carlo_network(), 1.0, 0.2, 1.0, 8, 1001, None)
def test_certified_samples_bound_their_distance_to_the_exact_answer(
        net, beta, sigma, tau, samples, seed, max_iterations):
    # a certified sample lies above its drawn network's exact greatest
    # equities by at most its bound; the bias bound covers the mean's excess
    # over the exact mean, less what the uncertified samples, stopped at the
    # default tolerance, add; a sample is dropped only if it neither certifies
    # nor meets the default stop within the sweep budget
    config = max_iterations and SolveConfig(max_iterations=max_iterations)
    spec = ValuationSpec.eisenberg_noe_haircut(beta)
    normals = np.random.default_rng(seed).standard_normal((samples, net.n))
    terminal = net.external_assets * np.exp(sigma * np.sqrt(tau) * normals
                                            - 0.5 * sigma * sigma * tau)
    bound = spec.bind(net, terminal)
    solutions, bounds, converged, certified, _ = _certify(bound, config)
    drawn = [FinancialNetwork(net.bank_ids, assets, net.external_liabilities,
                              net.interbank_liabilities) for assets in terminal]
    exact = np.array([[float(e) for e in exact_greatest(d, spec)] for d in drawn])
    rounding = _rounding(bound)
    excess = solutions - exact
    assert np.all(excess[certified] >= -rounding[certified])
    assert np.all(bounds[certified] >= np.abs(excess[certified]) - rounding[certified])
    assert np.all(bounds[~certified] == 0.0)

    result = monte_carlo_global_valuation(net, sigma, tau, beta, samples, seed, config)
    count = int(converged.sum())
    assert result.dropped == samples - count
    assert result.certified == int(certified.sum()) and not (certified & ~converged).any()
    if count:
        outside = np.maximum(excess[converged & ~certified], 0.0).sum(axis=0) / count
        shift = result.mean - exact[converged].sum(axis=0) / count
        assert np.all(result.bias_bound + outside >= shift - rounding.max())
    for row in np.nonzero(~converged)[0]:
        assert not greatest_solution(drawn[row], spec, config).converged


@given(networks() | sparse_networks(), st.sampled_from([1.0, 0.5]), st.floats(0.05, 1.0),
       st.floats(0.1, 2.0), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 2, 5]))
@example(_monte_carlo_network(), 1.0, 0.2, 1.0, 40, 1001, None)
@example(_monte_carlo_network(), 1.0, 0.2, 1.0, 1, 1001, None)
def test_every_bias_bound_is_within_its_share_of_the_standard_error(
        net, beta, sigma, tau, samples, seed, max_iterations):
    # the step is set before the solve from the book equities' standard errors, and
    # the check after it holds the budget whatever the draws; a lone sample has no
    # standard error to spend and is a plain solve, without a warning
    config = max_iterations and SolveConfig(max_iterations=max_iterations)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = monte_carlo_global_valuation(net, sigma, tau, beta, samples, seed, config)
    if result.dropped < samples:
        assert np.all(result.bias_bound <= BIAS_SHARE * result.std_error)
    if samples == 1:
        assert result.certified == 0


def _with_a_still_bank(net: FinancialNetwork, z_assets: float) -> FinancialNetwork:
    """``net`` with banks D and Z added: D holds 20 in external assets and owes Z 1, so
    never defaults in these draws, and Z holds ``z_assets`` and that claim only."""
    n = net.n
    liabilities = np.zeros((n + 2, n + 2))
    liabilities[:n, :n], liabilities[n, n + 1] = net.interbank_liabilities, 1.0
    return FinancialNetwork([*net.bank_ids, "D", "Z"], [*net.external_assets, 20.0, z_assets],
                            [*net.external_liabilities, 0.0, 0.0], liabilities)


CHAIN = FinancialNetwork(["A", "B", "C"], [1.0, 1.0, 1.0], [0.95, 0.95, 0.95],
                         [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize("net, max_iterations", [(CHAIN, None), (CHAIN, 2),
                                                 (_monte_carlo_network(), None),
                                                 (_monte_carlo_network(), 20)])
def test_a_bank_whose_equity_never_moves_sends_the_certified_rows_to_the_default_tolerance(
        net, max_iterations, caplog, monkeypatch):
    # with no external assets, Z's equity has a standard error of 0, below any bias
    # bound: the check after the solve sends the certified rows on to the default
    # tolerance, in one more _iterate call, and drops a row that runs out of sweeps
    # there, as its lone solve fails.  With external assets of its own Z moves, the
    # check holds and rows stay certified, in at most two _iterate calls
    config = max_iterations and SolveConfig(max_iterations=max_iterations)
    evaluations = [0]
    equity_map = BoundValuation.equity_map

    def counted(self, equities):
        evaluations[0] += len(equities)
        return equity_map(self, equities)

    monkeypatch.setattr(BoundValuation, "equity_map", counted)
    batches = []  # the rows of each _iterate call of one _certify: never none
    iterate = solver._iterate

    def recorded(stack, start, *args):
        batches.append(len(start))
        return iterate(stack, start, *args)

    monkeypatch.setattr(solver, "_iterate", recorded)
    for z_assets in (1.0, 0.0):
        still = _with_a_still_bank(net, z_assets)
        evaluations[0], batches[:] = 0, []
        with caplog.at_level("INFO", logger="neva"):
            result = monte_carlo_global_valuation(still, 0.5, 1.0, 1.0, 30, 7, config)
        logged, used = caplog.records[-1].getMessage(), evaluations[0]
        assert np.all(result.bias_bound <= BIAS_SHARE * result.std_error)
        assert batches and min(batches) > 0 and len(batches) <= (2 if z_assets else 3)
        if z_assets:
            assert result.std_error[-1] > 0.0 and result.certified > 0
            continue
        normals = np.random.default_rng(7).standard_normal((30, still.n))
        terminal = still.external_assets * np.exp(0.5 * normals - 0.125)
        alone = [greatest_solution(FinancialNetwork(still.bank_ids, assets,
                                                    still.external_liabilities,
                                                    still.interbank_liabilities),
                                   ValuationSpec.eisenberg_noe_haircut(1.0), config)
                 for assets in terminal]
        assert result.std_error[-1] == 0.0 and result.certified == 0
        assert not result.bias_bound.any()
        assert result.dropped == sum(not report.converged for report in alone)
        assert logged.startswith("monte carlo: 0 of 30 samples certified, bias bound 0, step ")
        if net.n > 3:  # no row has settled when probed: its lone solve's sweeps, one probe
            assert used < sum(report.iterations for report in alone) + 2 * 30


def test_a_small_bank_leaves_the_first_step_at_a_fixed_share_of_the_scale(caplog):
    # Harris bounds each equity SE by the book equity's SE, which for a bank a million
    # times smaller than the rest would set a first step far below what certifies the
    # other rows; the step stays at 1e-6 of the scale, and the check keeps the budget
    net = _monte_carlo_network()
    assets = net.external_assets.copy()
    assets[0] *= 1e-6
    small = FinancialNetwork(net.bank_ids, assets, net.external_liabilities,
                             net.interbank_liabilities)
    with caplog.at_level("INFO", logger="neva"):
        result = monte_carlo_global_valuation(small, 0.2, 1.0, 1.0, 40, 1001)
    assert caplog.records[-1].getMessage().endswith(", step 1e-06 of the median scale")
    assert result.dropped == 0 and result.certified > 0
    assert np.all(result.bias_bound <= BIAS_SHARE * result.std_error)
