"""The exact oracle of the pro-rata families, and the certified Monte Carlo
stop checked against it: greatest solves at or above the exact greatest
equities and tight re-solves within rounding of them; per-sample certified
bounds that cover each sample's distance to them; a bias bound that covers
what the early stops add to the mean; and drops only where a sample neither
certifies nor meets the default stop.  ``--hypothesis-profile neva-deep``
runs these properties at depth."""
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from neva import (FinancialNetwork, SolveConfig, ValuationSpec, greatest_solution,
                  monte_carlo_global_valuation)
from neva.solver import _certify, _scaled_epsilon

from conftest import exact_greatest
from test_properties import _monte_carlo_network, networks, sparse_networks

PRO_RATA = st.sampled_from([ValuationSpec.eisenberg_noe(),
                            ValuationSpec.eisenberg_noe_haircut(0.5)])


def _rounding(bound) -> np.ndarray:
    """1e-13 of each row's scale, a column: the float map's rounding allowance."""
    return _scaled_epsilon(bound.book_equity, bound.net.total_obligations(),
                           1e-13)[..., np.newaxis]


@given(networks() | sparse_networks(), PRO_RATA)
def test_the_greatest_solve_lies_above_the_exact_answer(net, spec):
    # the exact answer reads its regime off a solve at 1e-15 of the scale; the
    # default solve stops above it, and that tight solve near it, each within
    # rounding (a bank at its fixed point rounds up to an ulp of the scale below)
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
    solutions, bounds, converged, certified = _certify(bound, config)
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
