import numpy as np
import pytest

from neva import (FinancialNetwork, SolveConfig, ValuationSpec,
                  en_clearing_payments, greatest_solution, least_solution,
                  solve, solve_dag, topology, uniqueness_check)

from neva.solver import _iterate

from conftest import en_clearing_oracle, random_dag_network, random_network

EN = ValuationSpec.eisenberg_noe()


def test_picard_step_constant_map_without_claims():
    net = FinancialNetwork(["X", "Y"], [2.0, 1.0], [0.5, 0.25], np.zeros((2, 2)))
    book = net.book_equity()
    for equities in ([0.0, 0.0], [-5.0, 3.0], book):
        assert np.allclose(EN.bind(net).equity_map(equities), book)


def test_picard_step_open_chain_from_face_values(open_chain):
    # C's claim factor (−0.2+1.2)/1.2 = 5/6 prices B's claim at 1.0
    step = EN.bind(open_chain).equity_map(open_chain.book_equity())
    assert np.allclose(step, [2.2, 0.8, -0.2])


def test_picard_step_fixed_point(closed_chain):
    solution = greatest_solution(closed_chain, EN).solution
    assert np.allclose(EN.bind(closed_chain).equity_map(solution), solution,
                       atol=1e-14)


def test_greatest_solution_open_chain(open_chain):
    report = greatest_solution(open_chain, EN)
    assert report.converged and report.kind == "greatest"
    assert report.iterations <= 3
    assert report.residual <= report.epsilon
    assert np.allclose(report.solution, [2.2, 0.8, -0.2])
    assert report.monotone is True
    assert list(report.defaulted) == [False, False, True]


def test_greatest_solution_closed_chain_face_values_fixed(closed_chain):
    report = greatest_solution(closed_chain, EN)
    assert report.converged and report.iterations == 1
    assert np.allclose(report.solution, [0.6, 1.1, 1.3])


def test_greatest_solution_tree(tree):
    report = greatest_solution(tree, EN)
    assert np.allclose(report.solution, [2.1, -0.9, 0.0])


def test_least_solution_matches_on_dag(open_chain):
    report = least_solution(open_chain, EN)
    assert report.converged and report.kind == "least"
    assert np.allclose(report.solution, [2.2, 0.8, -0.2])
    assert report.monotone is True


def test_least_solution_constant_map():
    net = FinancialNetwork(["X", "Y"], [2.0, 1.0], [0.5, 0.25], np.zeros((2, 2)))
    report = least_solution(net, EN)
    # the very first application lands on the solution
    assert np.allclose(report.solution, net.book_equity())
    assert report.iterations <= 2


def test_least_solution_closed_chain(closed_chain):
    report = least_solution(closed_chain, EN)
    assert report.converged
    assert np.allclose(report.solution, [0.6, 1.1, 1.3])


def test_brackets_take_a_config_that_sets_only_the_tolerance(closed_chain):
    config = SolveConfig(epsilon=1e-12)
    least = least_solution(closed_chain, EN, config)
    assert least.kind == "least" and least.converged and least.epsilon == 1e-12
    assert np.allclose(least.solution, [0.6, 1.1, 1.3])
    check = uniqueness_check(closed_chain, EN, config)
    assert check.least.kind == "least" and check.greatest.kind == "greatest"
    np.testing.assert_array_equal(check.least.solution, least.solution)
    assert check.greatest.epsilon == 1e-12 and check.unique is True


def test_solve_config_validation(ring):
    with pytest.raises(ValueError):
        SolveConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolveConfig(epsilon=np.inf)
    with pytest.raises(ValueError):
        SolveConfig(max_iterations=0)
    with pytest.raises(ValueError, match="unknown start"):
        solve(ring, EN, start="somewhere")
    # types are checked at construction, not coerced or left to fail later
    for epsilon in (True, np.True_, "1e-9", 1j, [1e-9]):
        with pytest.raises(ValueError, match="epsilon"):
            SolveConfig(epsilon=epsilon)
    for max_iterations in (True, 2.5, 3.0, np.float64(3.0), "10", None):
        with pytest.raises(ValueError, match="max_iterations"):
            SolveConfig(max_iterations=max_iterations)
    config = SolveConfig(epsilon=np.float32(1e-9), max_iterations=np.int64(5))
    assert config.max_iterations == 5
    assert SolveConfig(epsilon=1).epsilon == 1


def test_iterate_never_builds_a_map_for_zero_rows():
    # an elementwise contraction per row (no mat-vec), so each row of the
    # stack rounds exactly as its own solve; rows retire at different sweeps
    targets = np.array([[1.0, -2.0], [5.0, 0.5], [-40.0, 3.0]])
    sizes = []

    def map_rows(rows):
        sizes.append(len(rows))
        return lambda equities: 0.5 * (equities + targets[rows])

    start = np.zeros((3, 2))
    stacked = _iterate(map_rows, start, 1e-9, 1000)
    assert sizes == [3, 2, 1]
    for k in range(3):
        alone = _iterate(lambda rows: lambda equities: 0.5 * (equities + targets[k]),
                         start[k:k + 1], 1e-9, 1000)
        for got, want in zip(stacked, alone):
            np.testing.assert_array_equal(got[k], want[0])
    sizes.clear()
    empty = _iterate(map_rows, np.zeros((0, 2)), 1e-9, 1000)
    assert sizes == [] and empty[0].shape == (0, 2)


def test_non_convergence_is_reported_not_raised(closed_chain):
    config = SolveConfig(max_iterations=1)
    report = least_solution(closed_chain, EN, config)
    assert not report.converged
    assert report.iterations == 1
    assert report.residual > report.epsilon


def test_uniqueness_on_dags_and_closed_chain(closed_chain):
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = random_dag_network(rng)
        check = uniqueness_check(net, EN)
        assert check.unique is True
    check = uniqueness_check(closed_chain, EN)
    assert check.unique is True
    assert check.gap <= 2.0 * check.greatest.epsilon


def test_uniqueness_indeterminate_when_unconverged(closed_chain):
    config = SolveConfig(max_iterations=1)
    check = uniqueness_check(closed_chain, EN, config)
    assert check.unique is None


def test_rogers_veraart_bistability_on_closed_chain(closed_chain):
    # with full fire-sale haircuts a collapsed system is self-consistent:
    # scanning shocks must exhibit distinct greatest/least solutions
    spec = ValuationSpec.rogers_veraart(alpha=0.0, beta=0.0)
    bistable = []
    for shock in np.linspace(0.0, 0.9, 10):
        check = uniqueness_check(closed_chain.apply_shock(shock), spec)
        if check.unique is False:
            bistable.append((shock, check))
    assert bistable, "no bistable shock found in the scan"
    shock, check = bistable[-1]
    assert np.all(check.least.solution <= check.greatest.solution + 1e-12)
    assert check.gap > 2.0 * check.greatest.epsilon


def test_solve_dag_fixtures(open_chain, tree):
    report = solve_dag(open_chain, EN)
    assert report.residual == 0.0 and report.converged
    assert report.iterations <= topology(open_chain).dag_depth + 1
    assert np.allclose(report.solution, [2.2, 0.8, -0.2])

    report = solve_dag(tree, EN)
    assert report.residual == 0.0
    assert report.iterations <= topology(tree).dag_depth + 1
    assert np.allclose(report.solution, [2.1, -0.9, 0.0])


def test_solve_dag_single_bank():
    net = FinancialNetwork(["X"], [1.0], [0.3], np.zeros((1, 1)))
    report = solve_dag(net, EN)
    assert report.iterations == 1 and report.residual == 0.0
    assert np.allclose(report.solution, [0.7])


def test_solve_dag_preconditions(open_chain, closed_chain):
    with pytest.raises(ValueError):
        solve_dag(closed_chain, EN)  # cycle
    with pytest.raises(ValueError):
        solve_dag(open_chain, ValuationSpec.rogers_veraart(0.5, 0.5))
    with pytest.raises(ValueError):
        solve_dag(open_chain, ValuationSpec(
            interbank_kind="eisenberg_noe", external_kind="rogers_veraart",
            alpha=0.5))


def test_custom_start_is_clamped_and_bracketed(closed_chain):
    start = np.array([100.0, -100.0, 0.0])  # far outside the lattice
    report = solve(closed_chain, EN, start=start)
    assert report.kind == "custom" and report.converged
    assert report.monotone is None
    greatest = greatest_solution(closed_chain, EN)
    least = least_solution(closed_chain, EN)
    eps = report.epsilon
    assert np.all(report.solution >= least.solution - eps)
    assert np.all(report.solution <= greatest.solution + eps)


def test_iterates_stay_in_lattice(ring):
    spec = ValuationSpec.exante_en_gbm(sigma=0.5, maturity=1.0)
    lower = ring.equity_lower_bound()
    upper = ring.book_equity()
    equities = upper.copy()
    for _ in range(30):
        equities = spec.bind(ring).equity_map(equities)
        assert np.all(equities >= lower - 1e-12)
        assert np.all(equities <= upper + 1e-12)


def test_map_order_preservation_random():
    rng = np.random.default_rng(17)
    specs = [EN, ValuationSpec.rogers_veraart(0.3, 0.7),
             ValuationSpec.furfine(0.4), ValuationSpec.linear_debtrank(),
             ValuationSpec.exante_en_gbm(0.8, 0.5),
             ValuationSpec.exante_en_uniform(0.6)]
    for _ in range(25):
        net = random_network(rng, nonnegative_cashflow=False)
        lower = net.equity_lower_bound() - 1.0
        upper = net.book_equity() + 1.0
        lo = rng.uniform(lower, upper)
        hi = lo + rng.uniform(0.0, 1.0, net.n)
        for spec in specs:
            bound = spec.bind(net)
            assert np.all(bound.equity_map(lo) <= bound.equity_map(hi) + 1e-12)


def test_bracketing_on_random_networks():
    rng = np.random.default_rng(23)
    specs = [EN, ValuationSpec.rogers_veraart(0.5, 0.5), ValuationSpec.furfine(0.0)]
    for _ in range(25):
        net = random_network(rng, nonnegative_cashflow=False)
        for spec in specs:
            greatest = greatest_solution(net, spec)
            least = least_solution(net, spec)
            assert greatest.converged and least.converged
            assert greatest.monotone is True and least.monotone is True
            eps = greatest.epsilon
            assert np.all(least.solution <= greatest.solution + 2.0 * eps)


def test_discontinuity_warnings():
    net = random_network(np.random.default_rng(2))
    assert least_solution(net, ValuationSpec.furfine(0.0)).warnings
    assert least_solution(net, ValuationSpec.rogers_veraart(0.5, 0.5)).warnings
    assert not least_solution(net, EN).warnings
    assert not least_solution(net, ValuationSpec.linear_debtrank()).warnings
    assert not least_solution(net, ValuationSpec.exante_en_gbm(1.0, 1.0)).warnings


def test_en_clearing_correspondence_random():
    rng = np.random.default_rng(31)
    config = SolveConfig(epsilon=1e-13)
    for _ in range(40):
        net = random_network(rng)
        report = greatest_solution(net, EN, config)
        payments = en_clearing_payments(net, report.solution)
        oracle = en_clearing_oracle(net)
        assert np.allclose(payments, oracle, atol=1e-8)


def test_en_clearing_correspondence_negative_cashflow():
    # with negative operating cashflow the payment map needs its positive
    # part; the equity solution still reproduces the clamped fixed point
    rng = np.random.default_rng(37)
    config = SolveConfig(epsilon=1e-13)
    for _ in range(40):
        net = random_network(rng, nonnegative_cashflow=False)
        report = greatest_solution(net, EN, config)
        payments = en_clearing_payments(net, report.solution)
        obligations = net.total_obligations()
        cashflow = net.external_assets - net.external_liabilities
        shares = np.divide(net.interbank_liabilities, obligations[:, None],
                           out=np.zeros_like(net.interbank_liabilities),
                           where=obligations[:, None] > 0)
        image = np.minimum(np.maximum(cashflow + shares.T @ payments, 0.0),
                           obligations)
        assert np.max(np.abs(payments - image)) <= 1e-9


def test_custom_start_shape_validation(ring):
    with pytest.raises(ValueError):
        solve(ring, EN, start=np.zeros(5))


def test_equity_boundary_evaluations_are_quiet(ring):
    # factors right at the equity == assets boundary, where the log argument
    # can round to zero, must evaluate without numeric noise
    import warnings
    from neva import exante_en_gbm_interbank
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assets = 1.0
        grid = np.array([assets - 1e-18, assets, assets + 1e-18])
        values = exante_en_gbm_interbank(grid, assets, 1.0, 1.0, 0.5)
    assert np.all((0.0 <= values) & (values <= 1.0))


def test_acyclic_uniqueness_for_any_borrower_only_family():
    # with unit external valuation, acyclic claim graphs settle layer by
    # layer, so the solution is unique even for discontinuous families
    rng = np.random.default_rng(41)
    specs = [EN, ValuationSpec.furfine(0.0), ValuationSpec.linear_debtrank(),
             ValuationSpec.exante_en_uniform(0.5),
             ValuationSpec.exante_en_gbm(0.7, 0.9)]
    for _ in range(10):
        net = random_dag_network(rng)
        for spec in specs:
            check = uniqueness_check(net, spec)
            assert check.unique is True, (spec.interbank_kind, check.gap)


def test_bracketing_includes_exante_families():
    rng = np.random.default_rng(43)
    specs = [ValuationSpec.exante_en_gbm(0.6, 1.3),
             ValuationSpec.exante_en_uniform(0.4)]
    for _ in range(15):
        net = random_network(rng, nonnegative_cashflow=False)
        for spec in specs:
            greatest = greatest_solution(net, spec)
            least = least_solution(net, spec)
            assert greatest.converged and least.converged
            assert not least.warnings  # both families continuous from below
            assert np.all(least.solution <= greatest.solution + 2 * greatest.epsilon)


def test_per_bank_volatility_solve(ring):
    spec = ValuationSpec.exante_en_gbm(sigma=(0.05, 0.5, 1.5), maturity=1.0)
    report = greatest_solution(ring, spec)
    assert report.converged and report.monotone is True
    lower, upper = ring.equity_lower_bound(), ring.book_equity()
    assert np.all(report.solution >= lower) and np.all(report.solution <= upper)
