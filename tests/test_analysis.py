import tracemalloc

import numpy as np
import pytest

from neva import (FinancialNetwork, NetworkError, SolveConfig, SpecError, ValuationSpec,
                  debtrank_limit_experiment, greatest_solution,
                  maturity_limit_experiment, merton_vs_network_discount,
                  monte_carlo_global_valuation, stress_test)

from conftest import (closed_chain_network, en_clearing_oracle, open_chain_network,
                      random_network, tree_network)

EN = ValuationSpec.eisenberg_noe()


# ----------------------------------------------------------------- stress test

def test_stress_no_shock_is_lossless_for_clearing(ring):
    result = stress_test(ring, EN, [0.0])[0]
    assert result.network_effect == 0.0
    assert np.allclose(result.delta_equity, 0.0)


def test_stress_full_shock_zero_recovery_writes_everything_off(ring):
    result = stress_test(ring, ValuationSpec.furfine(0.0), [1.0])[0]
    assert result.network_effect == pytest.approx(1.0)


def test_stress_exante_vs_expost_ordering(ring):
    exante = ValuationSpec.exante_en_gbm(sigma=0.1, maturity=25.0)
    small_en = stress_test(ring, EN, [0.02])[0].network_effect
    small_ex = stress_test(ring, exante, [0.02])[0].network_effect
    large_en = stress_test(ring, EN, [0.9])[0].network_effect
    large_ex = stress_test(ring, exante, [0.9])[0].network_effect
    assert small_ex > small_en
    assert large_ex < large_en


def test_stress_losses_at_least_direct_losses(ring):
    for spec in (EN, ValuationSpec.exante_en_gbm(0.1, 25.0)):
        for result in stress_test(ring, spec, np.linspace(0.0, 1.0, 11)):
            direct = result.shock * ring.external_assets
            assert np.all(result.delta_equity >= direct - 1e-9)


def test_stress_network_effect_nondecreasing_for_clearing(ring):
    effects = [r.network_effect for r in
               stress_test(ring, EN, np.linspace(0.0, 1.0, 100))]
    assert all(b >= a - 1e-12 for a, b in zip(effects, effects[1:]))


def test_stress_loss_decomposition_identity(ring):
    # total losses minus direct losses equal the claim write-offs
    spec = ValuationSpec.exante_en_gbm(sigma=0.1, maturity=25.0)
    for result in stress_test(ring, spec, [0.1, 0.3, 0.6]):
        direct = result.shock * ring.external_assets
        lhs = (result.delta_equity - direct).sum()
        shocked = ring.apply_shock(result.shock)
        discounts = spec.bind(shocked).edge_discounts(result.report.solution)
        rhs = (shocked.interbank_liabilities.T * (1.0 - discounts)).sum()
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_stress_unconverged_point_flagged(ring):
    config = SolveConfig(max_iterations=1)
    result = stress_test(ring, EN, [0.3], config)[0]
    assert not result.report.converged
    assert result.network_effect is None


def test_stress_accepts_per_bank_shocks(ring):
    result = stress_test(ring, EN, [np.array([0.0, 0.0, 0.5])])[0]
    assert result.alpha is None
    assert np.allclose(result.shock, [0.0, 0.0, 0.5])


STACK_SPECS = [
    EN,
    ValuationSpec.rogers_veraart(alpha=0.6, beta=0.8),  # also the fire-sale external
    ValuationSpec.furfine(0.3),
    ValuationSpec.linear_debtrank(),
    ValuationSpec.exante_en_gbm(sigma=0.4, maturity=2.0, beta=0.7),
    ValuationSpec.exante_en_uniform(0.6),
]


def _stack_cases(seed=5):
    """Random networks with a grid of scalar and per-bank shocks each."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        net = random_network(rng, max_banks=12)
        yield net, [0.0, 0.2, rng.uniform(0.0, 1.0, net.n), 0.5, 0.9,
                    rng.uniform(0.0, 0.3, net.n), 1.0]


@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda spec: spec.interbank_kind)
def test_stress_stack_matches_per_point_solves(spec):
    for net, alphas in _stack_cases():
        for alpha, result in zip(alphas, stress_test(net, spec, alphas)):
            single = greatest_solution(net.apply_shock(alpha), spec)
            assert result.report.converged and single.converged
            assert result.report.epsilon == single.epsilon
            gap = np.max(np.abs(result.report.solution - single.solution))
            assert gap <= 10 * single.epsilon


def test_stress_stack_flags_only_the_unconverged_point(ring):
    # at alpha 0.2 the ring needs four sweeps, the other points at most two
    results = stress_test(ring, EN, [0.0, 0.5, 0.2, 1.0], SolveConfig(max_iterations=3))
    assert [r.report.converged for r in results] == [True, True, False, True]
    assert [r.network_effect is None for r in results] == [False, False, True, False]
    assert results[2].report.iterations == 3
    assert [r.report.iterations for r in results[:2]] == [1, 2]


def test_stress_and_discounts_of_no_points(ring):
    assert stress_test(ring, EN, []) == []
    assert merton_vs_network_discount(ring, STACK_SPECS[4], []) == []


# ------------------------------------------------------ merton-style comparison

@pytest.mark.parametrize("spec", STACK_SPECS[4:], ids=lambda spec: spec.interbank_kind)
def test_discount_stack_matches_per_point_solves(spec):
    for net, alphas in _stack_cases(seed=9):
        for alpha, cmp in zip(alphas, merton_vs_network_discount(net, spec, alphas)):
            shocked = net.apply_shock(alpha)
            bound = spec.bind(shocked)
            single = greatest_solution(shocked, spec)
            lenders, borrowers = np.array(cmp.edges, dtype=int).reshape(-1, 2).T
            merton = bound.edge_discounts(bound.book_equity)[lenders, borrowers]
            network = bound.edge_discounts(single.solution)[lenders, borrowers]
            assert cmp.converged and single.converged
            assert np.array_equal(cmp.merton, merton)
            assert np.max(np.abs(cmp.network - network), initial=0.0) \
                <= 10 * single.epsilon


@pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda spec: spec.interbank_kind)
def test_network_effect_matches_the_dense_formula(spec):
    for net, alphas in _stack_cases(seed=11):
        claims = net.interbank_liabilities.T
        total = claims.sum()
        results = stress_test(net, spec, alphas)
        bound = spec.bind(net, [(1.0 - r.shock) * net.external_assets for r in results])
        solutions = np.array([r.report.solution for r in results])
        # the discounts the network effect is summed from, one row per point
        discounts = bound.edge_factor(net.creditors, net.debtors, solutions)
        for k, (result, dense) in enumerate(zip(results, bound.edge_discounts(solutions))):
            assert np.array_equal(discounts[k], dense[net.creditors, net.debtors])
            expected = (claims * (1.0 - dense)).sum() / total if total > 0 else 0.0
            assert result.network_effect == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("spec", STACK_SPECS[4:], ids=lambda spec: spec.interbank_kind)
def test_discounts_match_the_dense_stacks(spec):
    for net, alphas in _stack_cases(seed=13):
        comparisons = merton_vs_network_discount(net, spec, alphas)
        bound = spec.bind(net, [(1.0 - c.shock) * net.external_assets for c in comparisons])
        # stress_test solves the same stack, so these are the same solutions
        solutions = np.array([r.report.solution for r in stress_test(net, spec, alphas)])
        lenders, borrowers = np.nonzero(net.interbank_liabilities.T > 0)
        merton = bound.edge_discounts(bound.book_equity)[:, lenders, borrowers]
        network = bound.edge_discounts(solutions)[:, lenders, borrowers]
        for k, cmp in enumerate(comparisons):
            assert cmp.edges == tuple(zip(lenders, borrowers))
            assert np.array_equal(cmp.merton, merton[k])
            assert np.allclose(cmp.network, network[k], rtol=1e-15, atol=0.0)
            assert np.allclose(cmp.difference, merton[k] - network[k], rtol=1e-15, atol=0.0)


def test_stress_memory_stays_below_one_discount_stack():
    # the per-point network effect sums over the claims; no (points, n, n)
    # discount stack is built
    rng = np.random.default_rng(17)
    n, points = 300, 31
    liabilities = rng.lognormal(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 10.0 / n)
    np.fill_diagonal(liabilities, 0.0)
    assets = 3.0 * liabilities.sum(axis=0).mean() * rng.lognormal(0.0, 0.2, n)
    net = FinancialNetwork([f"B{k}" for k in range(n)], assets, 0.9 * assets, liabilities)
    alphas = np.linspace(0.0, 0.3, points)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        results = stress_test(net, EN, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(result.report.converged for result in results)
    assert peak < points * n * n * 8


def test_sparse_solves_and_stress_points_clear_like_the_oracle():
    # 400 banks owing about 5 banks each: a density of about 1.25%, so every
    # sweep sums the claims over the edges; the greatest solve and each point
    # of a stress grid are the payment-space clearing within 1e-9 of the scale.
    # A tight stop: the default one does not bound the distance to the fixed
    # point, and the slow point at alpha = 0.07 (1401 sweeps) stops 86 of its
    # tolerances away from it
    rng = np.random.default_rng(23)
    n = 400
    liabilities = rng.lognormal(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 5.0 / n)
    np.fill_diagonal(liabilities, 0.0)
    assets = 3.0 * liabilities.sum(axis=0).mean() * rng.lognormal(0.0, 0.2, n)
    net = FinancialNetwork([f"B{k}" for k in range(n)], assets, 0.93 * assets, liabilities)
    assert net._sparse
    scale = np.max(np.abs(net.book_equity()))
    obligations = net.total_obligations()
    shares = liabilities / np.where(obligations > 0, obligations, 1.0)[:, np.newaxis]

    def oracle(shocked):
        return (shocked.external_assets - shocked.external_liabilities
                + en_clearing_oracle(shocked) @ shares - obligations)

    config = SolveConfig(epsilon=1e-13)
    report = greatest_solution(net, EN, config)
    assert report.converged
    assert np.max(np.abs(report.solution - oracle(net))) <= 1e-9 * scale
    alphas = np.linspace(0.0, 0.1, 11)  # from about half the banks in default to all
    results = stress_test(net, EN, alphas, config)
    for alpha, result in zip(alphas, results):
        assert result.report.converged
        solution = result.report.solution
        assert np.max(np.abs(solution - oracle(net.apply_shock(alpha)))) <= 1e-9 * scale


def test_discount_difference_zero_when_face_values_fixed(closed_chain):
    # short maturity, well-capitalized banks: factors saturate at one and
    # face values are already the fixed point
    spec = ValuationSpec.exante_en_gbm(sigma=1.0, maturity=0.01)
    cmp = merton_vs_network_discount(closed_chain, spec, [0.0])[0]
    assert cmp.converged
    assert np.all(cmp.difference == 0.0)


def test_discount_comparison_empty_without_claims():
    net = FinancialNetwork(["X", "Y"], [1.0, 2.0], [0.2, 0.1], np.zeros((2, 2)))
    spec = ValuationSpec.exante_en_gbm(sigma=1.0, maturity=1.0)
    cmp = merton_vs_network_discount(net, spec, [0.2])[0]
    assert cmp.edges == ()
    assert cmp.difference.size == 0


def test_discount_comparison_requires_exante(ring):
    with pytest.raises(SpecError):
        merton_vs_network_discount(ring, EN, [0.1])


def test_discount_difference_nonnegative_with_interior_max(ring):
    spec = ValuationSpec.exante_en_gbm(sigma=0.1, maturity=25.0)
    grid = np.linspace(0.0, 1.0, 50)
    comparisons = merton_vs_network_discount(ring, spec, grid)
    peaks = np.array([c.difference.max() for c in comparisons])
    assert np.all(np.concatenate([c.difference for c in comparisons]) >= -1e-9)
    top = int(np.argmax(peaks))
    assert 0 < top < len(grid) - 1


# -------------------------------------------------------------- limit behavior

APPENDIX_FIXTURES = [
    (open_chain_network, [2.2, 0.8, -0.2]),
    (tree_network, [2.1, -0.9, 0.0]),
    (closed_chain_network, [0.6, 1.1, 1.3]),
]


@pytest.mark.parametrize("make_net,reference", APPENDIX_FIXTURES)
def test_maturity_limit_converges_to_clearing(make_net, reference):
    net = make_net()
    series = maturity_limit_experiment(net, sigma=1.0,
                                       taus=[1.0, 1e-2, 1e-4, 1e-6], beta=1.0)
    assert not series.partial
    assert np.allclose(series.reference, reference, atol=1e-9)
    assert series.deviations[-1] < 1e-3
    assert all(np.isfinite(series.deviations))


def test_maturity_limit_reference_carries_the_haircut(open_chain):
    # with beta < 1 the short-maturity limit is pro-rata clearing with the
    # haircut on what B pays, not plain eisenberg_noe ([2.2, 0.8, -0.2])
    series = maturity_limit_experiment(open_chain, sigma=0.3,
                                       taus=[1.0, 1e-2, 1e-4, 1e-6], beta=0.5)
    assert not series.partial
    assert np.allclose(series.reference, [2.2, 0.3, -0.2], atol=1e-9)
    assert series.deviations[0] > 0.1
    assert max(series.deviations[1:]) < 1e-8


def test_maturity_limit_validation(ring):
    with pytest.raises(SpecError):
        maturity_limit_experiment(ring, 1.0, [1e-2, 1e-1])  # not decreasing
    with pytest.raises(SpecError):
        maturity_limit_experiment(ring, 1.0, [1e-2, 0.0])


def test_debtrank_limit_exact_at_zero_beta(ring):
    shocked = ring.apply_shock(0.15)
    reference = greatest_solution(shocked, ValuationSpec.linear_debtrank())
    report = greatest_solution(shocked, ValuationSpec.exante_en_uniform(0.0))
    assert np.max(np.abs(report.solution - reference.solution)) <= report.epsilon


def test_debtrank_limit_on_ring_is_stationary(ring):
    # every bank is solvent at face value, so face values solve every member
    series = debtrank_limit_experiment(ring, [2.0 ** -l for l in range(8)])
    assert not series.partial
    assert max(series.deviations) <= 1e-9


def test_debtrank_limit_nontrivial_convergence(open_chain):
    betas = [2.0 ** -l for l in range(21)]
    series = debtrank_limit_experiment(open_chain, betas)
    assert not series.partial
    deviations = np.array(series.deviations)
    assert deviations[0] > 1e-4  # visibly away from the limit at beta = 1
    assert deviations[-1] < 1e-6
    assert np.all(np.diff(deviations) <= 1e-9)
    assert any("C" in note for note in series.notes)  # C insolvent at face value


def test_debtrank_limit_shocked_ring_monotone(ring):
    shocked = ring.apply_shock(0.15)
    series = debtrank_limit_experiment(shocked, [2.0 ** -l for l in range(21)])
    deviations = np.array(series.deviations)
    assert deviations[-1] < 1e-6
    assert np.all(np.diff(deviations) <= 1e-9)


def test_debtrank_limit_validation(ring):
    with pytest.raises(SpecError):
        debtrank_limit_experiment(ring, [0.5, 0.5])
    with pytest.raises(SpecError):
        debtrank_limit_experiment(ring, [1.5, 0.5])


def _limit_cases(seed=13):
    """Random networks, half of them with external liabilities above the
    external assets, each with a per-bank volatility vector."""
    rng = np.random.default_rng(seed)
    for k in range(4):
        net = random_network(rng, max_banks=12, nonnegative_cashflow=k % 2 == 0)
        yield net, rng.uniform(0.1, 1.0, net.n)


def test_limit_stack_matches_per_spec_solves():
    taus, betas = [4.0, 1.0, 0.1, 1e-3], [1.0, 0.5, 0.1, 0.0]
    for net, per_bank in _limit_cases():
        runs = [(maturity_limit_experiment(net, sigma, taus, beta),
                 [ValuationSpec.exante_en_gbm(sigma, tau, beta) for tau in taus])
                for sigma in (0.5, per_bank) for beta in (1.0, 0.6)]
        runs.append((debtrank_limit_experiment(net, betas),
                     [ValuationSpec.exante_en_uniform(beta) for beta in betas]))
        for series, specs in runs:
            for equities, converged, spec in zip(series.equities, series.converged,
                                                 specs):
                single = greatest_solution(net, spec)
                assert converged == single.converged
                assert np.max(np.abs(equities - single.solution)) <= 10 * single.epsilon


def test_limit_stack_flags_only_the_unconverged_row(ring):
    # tau 1 needs ten sweeps, the other maturities and the reference at most nine
    taus, config = [4.0, 1.0, 0.1, 1e-3], SolveConfig(max_iterations=9)
    series = maturity_limit_experiment(ring, 0.5, taus, config=config)
    singles = [greatest_solution(ring, ValuationSpec.exante_en_gbm(0.5, tau), config)
               for tau in taus]
    assert series.converged == (True, False, True, True)
    assert series.converged == tuple(single.converged for single in singles)
    assert series.partial and not series.notes  # the reference converged


def test_limit_series_without_claims_is_flat():
    net = FinancialNetwork(["X", "Y"], [2.0, 1.0], [0.5, 0.25], np.zeros((2, 2)))
    series = debtrank_limit_experiment(net, [1.0, 0.5, 0.25])
    book = net.book_equity()
    for equities in series.equities:
        assert np.allclose(equities, book)


# ---------------------------------------------------------------- monte carlo

def test_monte_carlo_degenerate_volatility_matches_clearing(open_chain):
    result = monte_carlo_global_valuation(open_chain, sigma=1e-8, tau=1.0,
                                          beta=1.0, samples=400, seed=0)
    reference = greatest_solution(open_chain, EN).solution
    assert result.valid and result.dropped == 0
    assert np.max(np.abs(result.mean - reference)) < 1e-6


def test_monte_carlo_martingale_without_claims():
    net = FinancialNetwork(["X", "Y"], [2.0, 1.0], [0.5, 0.25], np.zeros((2, 2)))
    result = monte_carlo_global_valuation(net, sigma=0.5, tau=1.0, beta=1.0,
                                          samples=20_000, seed=3)
    expected = net.external_assets - net.external_liabilities
    assert np.all(np.abs(result.mean - expected) <= 3.0 * result.std_error)


def test_monte_carlo_is_bit_reproducible(closed_chain):
    first = monte_carlo_global_valuation(closed_chain, 0.8, 1.0, 1.0, 500, seed=11)
    second = monte_carlo_global_valuation(closed_chain, 0.8, 1.0, 1.0, 500, seed=11)
    assert np.array_equal(first.mean, second.mean)
    assert np.array_equal(first.std_error, second.std_error)
    other = monte_carlo_global_valuation(closed_chain, 0.8, 1.0, 1.0, 500, seed=12)
    assert not np.array_equal(first.mean, other.mean)


def test_monte_carlo_drop_accounting(closed_chain):
    config = SolveConfig(max_iterations=1)
    result = monte_carlo_global_valuation(closed_chain, sigma=2.0, tau=1.0,
                                          beta=1.0, samples=300, seed=5,
                                          config=config)
    assert result.dropped > 0
    assert not result.valid


def test_monte_carlo_validation(ring):
    with pytest.raises(SpecError):
        monte_carlo_global_valuation(ring, 1.0, 0.0, 1.0, 10)
    with pytest.raises(SpecError):
        monte_carlo_global_valuation(ring, 1.0, 1.0, 2.0, 10)
    with pytest.raises(SpecError):
        monte_carlo_global_valuation(ring, 1.0, 1.0, 1.0, 0)
    with pytest.raises(SpecError):
        monte_carlo_global_valuation(ring, -1.0, 1.0, 1.0, 10)


@pytest.mark.parametrize("samples, seed, name", [
    (10, True, "seed"), (10, -1, "seed"), (10, 2.5, "seed"), (10, 2.0, "seed"),
    (3.0, 0, "samples"), (True, 0, "samples"), (np.float64(3.0), 0, "samples"),
], ids=["bool-seed", "negative-seed", "fractional-seed", "float-seed", "float-samples",
        "bool-samples", "numpy-float-samples"])
def test_monte_carlo_rejects_argument_types_before_drawing(ring, monkeypatch,
                                                          samples, seed, name):
    def no_draws(*args):
        raise AssertionError("drew samples")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(SpecError, match=name):
        monte_carlo_global_valuation(ring, 1.0, 1.0, 1.0, samples, seed)


def test_monte_carlo_global_vs_local_differ(open_chain):
    # before maturity, averaging solved equities (global) and solving with
    # averaged factors (local) need not agree; the gap is reported, and on
    # this fixture the lender bank shows a statistically significant one
    mc = monte_carlo_global_valuation(open_chain, sigma=1.0, tau=1.0,
                                      beta=1.0, samples=50_000, seed=7)
    local = greatest_solution(open_chain,
                              ValuationSpec.exante_en_gbm(1.0, 1.0)).solution
    gap = np.abs(mc.mean - local)
    print(f"global-vs-local gap per bank: {gap} (std errors {mc.std_error})")
    assert mc.valid
    assert np.all(np.isfinite(gap))
    assert gap[0] > 3.0 * mc.std_error[0]


def test_stress_full_shock_with_exante_family(ring):
    # at a total write-down every external asset is zero and the family
    # degenerates to the at-maturity branch without numeric trouble
    spec = ValuationSpec.exante_en_gbm(sigma=0.5, maturity=1.0)
    result = stress_test(ring, spec, [1.0])[0]
    assert result.report.converged
    assert result.network_effect == pytest.approx(1.0)


def test_stress_with_lender_dependent_family(ring):
    # the fire-sale family discounts edges by lender and borrower factors;
    # the metric must stay normalized
    spec = ValuationSpec.rogers_veraart(alpha=0.5, beta=0.5)
    for result in stress_test(ring, spec, [0.0, 0.3, 0.7]):
        assert result.report.converged
        assert 0.0 <= result.network_effect <= 1.0
        bound = spec.bind(ring, (1.0 - result.shock) * ring.external_assets)
        borrower = bound.borrower_factors(result.report.solution)
        lender = bound.lender_factors(result.report.solution)
        assert borrower.shape == lender.shape == (3,)


def test_limit_sequences_are_checked_in_one_place(ring):
    # both experiments share the non-empty and strictly-decreasing check, and
    # each keeps its own range check
    for sequence, run in (("tau", lambda p: maturity_limit_experiment(ring, 1.0, p)),
                          ("beta", lambda p: debtrank_limit_experiment(ring, p))):
        with pytest.raises(SpecError, match=f"^{sequence} sequence must not be empty$"):
            run([])
        with pytest.raises(SpecError,
                           match=f"^{sequence} sequence must be strictly decreasing$"):
            run([0.5, 0.5])
    with pytest.raises(SpecError, match="^tau sequence must be positive$"):
        maturity_limit_experiment(ring, 1.0, [1.0, 0.0])
    with pytest.raises(SpecError, match=r"^beta sequence must lie in \[0, 1\]$"):
        debtrank_limit_experiment(ring, [1.5, 0.5])
    # an element past the first is checked as its spec would check it; a NaN
    # passes the sequence checks (every comparison with it is false), an inf not
    nan, inf = float("nan"), float("inf")
    with pytest.raises(SpecError, match="^time to maturity must be positive; valuation at"):
        maturity_limit_experiment(ring, 1.0, [2.0, nan, 0.5])
    with pytest.raises(SpecError, match="^tau sequence must be strictly decreasing$"):
        maturity_limit_experiment(ring, 1.0, [2.0, inf, 0.5])
    # the last (shortest) maturity too: its spread sqrt(2 tau) sigma underflows
    with pytest.raises(SpecError, match="^1/spread leaves the float range"):
        maturity_limit_experiment(ring, 1e-200, [1.0, 1e-300])
    with pytest.raises(SpecError, match=r"^beta must lie in \[0, 1\], got nan$"):
        debtrank_limit_experiment(ring, [1.0, nan, 0.5])
    with pytest.raises(SpecError, match=r"^beta sequence must lie in \[0, 1\]$"):
        debtrank_limit_experiment(ring, [1.0, inf, 0.5])


GBM = ValuationSpec.exante_en_gbm(0.5, 1.0)


@pytest.mark.parametrize("call, name", [
    (lambda net: ValuationSpec.furfine(True), "recovery"),
    (lambda net: ValuationSpec.furfine("0.5"), "recovery"),
    (lambda net: ValuationSpec.furfine(np.True_), "recovery"),
    (lambda net: ValuationSpec.exante_en_gbm((0.2, True, 0.3), 1.0), "sigma"),
    (lambda net: stress_test(net, EN, [True]), "shock"),
    (lambda net: stress_test(net, EN, ["0.1"]), "shock"),
    (lambda net: stress_test(net, EN, [[0.1, True, 0.0]]), "shock"),
    (lambda net: stress_test(net, EN, [np.array([False, True, False])]), "shock"),
    (lambda net: merton_vs_network_discount(net, GBM, ["0.2"]), "shock"),
    (lambda net: maturity_limit_experiment(net, 0.2, [2.0, True]), "tau"),
    (lambda net: debtrank_limit_experiment(net, [1.0, False]), "beta"),
    (lambda net: monte_carlo_global_valuation(net, 0.2, "1", 1.0, 10), "maturity"),
], ids=["bool-recovery", "string-recovery", "numpy-bool-recovery", "bool-sigma-entry",
        "bool-shock", "string-shock", "bool-per-bank-shock", "numpy-bool-shocks",
        "string-discount-shock", "bool-tau", "bool-beta", "string-tau"])
def test_api_rejects_booleans_and_strings(ring, call, name):
    # inputs are rejected, not coerced: a boolean is not a number, a string
    # holding one neither, in the Python API as in the files
    with pytest.raises((SpecError, NetworkError),
                       match=f"^{name}.* must be (a number|numbers), got"):
        call(ring)


def test_api_accepts_numpy_numbers(ring):
    assert ValuationSpec.furfine(np.float32(0.5)).recovery == 0.5
    spec = ValuationSpec.exante_en_gbm(np.array([0.2, 0.3, 0.4]), np.int64(1))
    assert spec.sigma == (0.2, 0.3, 0.4) and spec.maturity == 1.0
    shocks = [np.float64(0.1), np.array([0.1, 0.2, 0.0]), 0]
    assert [r.alpha for r in stress_test(ring, EN, shocks)] == [0.1, None, 0.0]
    assert maturity_limit_experiment(ring, 0.2, np.array([2.0, 1.0])).parameters == (2.0, 1.0)


def test_limit_notes_an_unconverged_reference():
    # the ring A -> B -> C -> A, in which A's external liabilities exceed
    # what it is owed, takes more than two sweeps at maturity
    liabilities = np.zeros((3, 3))
    liabilities[0, 1] = liabilities[1, 2] = liabilities[2, 0] = 1.0
    net = FinancialNetwork(["A", "B", "C"], [0.0, 0.1, 0.1], [0.5, 0.0, 0.0], liabilities)
    series = maturity_limit_experiment(net, 0.2, [1.0, 0.5],
                                       config=SolveConfig(max_iterations=2))
    assert series.notes == ("reference solve did not converge",) and series.partial
