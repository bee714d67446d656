import numpy as np
import pytest

from neva import (FinancialNetwork, SolveConfig, ValuationSpec,
                  en_clearing_payments, greatest_solution, least_solution,
                  solve, uniqueness_check)

from neva.solver import _iterate, _reports, _solve

from conftest import (claim_depth, en_clearing_oracle, random_dag_network, random_network,
                      rescaled)

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


@pytest.mark.filterwarnings("error")
def test_pro_rata_ratio_beyond_the_float_range_clips_without_a_warning():
    # B's equity over its obligations, -1e10 x (1/1e-300), overflows to -inf and
    # clips to a factor of 0, as any ratio below -1 does; numpy warned of it before
    net = FinancialNetwork(["A", "B"], [1.0, 0.0], [0.0, 1e10], [[0, 0], [1e-300, 0]])
    for solve in (greatest_solution, least_solution):
        report = solve(net, EN)
        assert report.converged and report.solution.tolist() == [1.0, -1e10]


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


class _Contractions:
    """A stack of contractions ``E -> rate * E + cash`` as ``_iterate`` sees a
    binding: ``cash`` holds a row per problem and ``rate`` is a ``(rows, 1)``
    column, both gathered by ``keep``.  The map is elementwise, so each row
    rounds exactly as its own solve; it records the rows it is evaluated on."""

    def __init__(self, cash, rate):
        self.cash, self.rate, self.sizes = cash, rate, []

    def stack(self, count):
        assert count == len(self.cash)
        return self

    def keep(self, rows):
        self.cash, self.rate = self.cash[rows], self.rate[rows]

    def equity_map(self, equities):
        self.sizes.append(len(equities))
        return self.rate * equities + self.cash


def test_iterate_never_builds_a_map_for_zero_rows():
    # rows retire at different sweeps: the stack shrinks 3 -> 2 -> 1 and is
    # never evaluated on zero rows, also when it starts empty
    targets = np.array([[1.0, -2.0], [5.0, 0.5], [-40.0, 3.0]])
    stack = _Contractions(0.5 * targets, np.full((3, 1), 0.5))
    _iterate(stack, np.zeros((3, 2)), 1e-9, 1000)
    assert list(dict.fromkeys(stack.sizes)) == [3, 2, 1]
    empty = _Contractions(np.zeros((0, 2)), np.zeros((0, 1)))
    solutions = _iterate(empty, np.zeros((0, 2)), 1e-9, 1000)[0]
    assert empty.sizes == [] and solutions.shape == (0, 2)


def test_compaction_keeps_each_row_with_its_constants():
    # rows retire out of order, row 0 last, so every compaction moves rows
    # up past retired ones; each row must still be solved with its own cash
    # and (rows, 1) column: exactly for an elementwise map, and within its
    # epsilon through a binding's stack (whose mat-vec may round by stack size)
    cash = np.array([[3.0, -1.0, 2.0], [0.5, 0.25, -0.5], [-8.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
    rate = np.array([[0.9], [0.2], [0.6], [0.4]])
    start = np.zeros(cash.shape)
    stacked = _iterate(_Contractions(cash, rate), start, 1e-12, 1000)
    assert list(np.argsort(stacked[1])) == [1, 3, 2, 0]
    for k in range(len(cash)):
        alone = _iterate(_Contractions(cash[k:k + 1], rate[k:k + 1]), start[k:k + 1],
                         1e-12, 1000)
        for got, want in zip(stacked, alone):
            np.testing.assert_array_equal(got[k], want[0])

    net = random_network(np.random.default_rng(7), max_banks=8)
    alphas, maturities = [0.6, 0.0, 0.3, 0.1], [2.0, 0.05, 0.5, 0.2]
    assets = np.array([net.apply_shock(alpha).external_assets for alpha in alphas])
    bound = ValuationSpec.exante_en_gbm(0.4, 1.0).bind(
        net, assets, maturity=np.array(maturities)[:, np.newaxis])
    reports = _reports(_solve(bound, bound.book_equity, None))
    assert list(np.argsort([report.iterations for report in reports])) == [1, 3, 2, 0]
    for alpha, maturity, report in zip(alphas, maturities, reports):
        alone = greatest_solution(net.apply_shock(alpha),
                                  ValuationSpec.exante_en_gbm(0.4, maturity))
        assert report.converged and alone.converged
        assert report.epsilon == alone.epsilon
        assert np.max(np.abs(report.solution - alone.solution)) <= alone.epsilon


def test_default_tolerance_scales_with_the_unit():
    # with an absolute floor of 1 on its scale, the default stop loosened as
    # the unit shrank: relative error 2e-6 at 2**-20 and 43% at 2**-34, each
    # reported as converged
    net = random_network(np.random.default_rng(3), nonnegative_cashflow=False)
    reference = greatest_solution(net, EN, SolveConfig(epsilon=1e-14)).solution
    size = np.max(np.abs(reference))
    for k in range(-34, 21):
        unit = 2.0 ** k
        report = greatest_solution(rescaled(net, unit), EN)
        assert report.converged
        assert np.max(np.abs(report.solution / unit - reference)) <= 1e-9 * size


def test_default_tolerance_of_balance_sheets_without_book_equity():
    # all book equities 0: the scale is the largest obligation; without
    # obligations too, only a zero step stops
    owing = FinancialNetwork(["A", "B"], [1.0, 0.0], [0.0, 1.0], [[0.0, 1.0], [0.0, 0.0]])
    assert np.all(owing.book_equity() == 0.0)
    assert greatest_solution(owing, EN).epsilon == 1e-10
    empty = FinancialNetwork(["A", "B"], [0.0, 0.0], [0.0, 0.0], np.zeros((2, 2)))
    report = greatest_solution(empty, EN)
    assert report.epsilon == 5e-324 and report.converged
    assert np.all(report.solution == 0.0)


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


def _exact_stop(net):
    # each sweep from the face values settles the next layer of claim depth
    depth = claim_depth(net)
    report = greatest_solution(net, EN, SolveConfig(epsilon=5e-324,
                                                    max_iterations=depth + 1))
    assert report.converged and report.residual == 0.0
    assert report.iterations <= depth + 1
    return report


def test_solve_dag_fixtures(open_chain, tree):
    assert np.allclose(_exact_stop(open_chain).solution, [2.2, 0.8, -0.2])
    assert np.allclose(_exact_stop(tree).solution, [2.1, -0.9, 0.0])


def test_solve_dag_single_bank():
    report = _exact_stop(FinancialNetwork(["X"], [1.0], [0.3], np.zeros((1, 1))))
    assert report.iterations == 1
    assert np.allclose(report.solution, [0.7])


def test_custom_start_is_clamped_and_bracketed(closed_chain):
    start = np.array([100.0, -100.0, 0.0])  # far outside the lattice
    report = solve(closed_chain, EN, start=start)
    assert report.kind == "custom" and report.converged
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


def test_custom_start_with_nan_is_rejected(ring):
    # a NaN entry would never meet the stop rule: rejected, as a wrong shape is
    with pytest.raises(ValueError, match="NaN"):
        solve(ring, EN, start=[0.0, np.nan, 0.0])
    assert solve(ring, EN, start=[0.0, np.inf, -np.inf]).converged  # clamped into [m, M]


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
    assert report.converged
    lower, upper = ring.equity_lower_bound(), ring.book_equity()
    assert np.all(report.solution >= lower) and np.all(report.solution <= upper)
