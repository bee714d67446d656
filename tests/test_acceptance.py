"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion NN [PASS|FAIL]` line (run pytest with -s to
see them on success) and then asserts, so the suite doubles as a checklist.
"""
import time

import numpy as np

from neva import (SolveConfig, ValuationSpec, en_clearing_payments,
                  greatest_solution, least_solution,
                  merton_vs_network_discount, monte_carlo_global_valuation,
                  stress_test)
from neva.valuation import (gbm_default_probability, gbm_endogenous_recovery,
                            uniform_default_probability,
                            uniform_endogenous_recovery)

from conftest import (claim_depth, closed_chain_network,
                      gbm_default_probability_quadrature, gbm_recovery_quadrature,
                      lattice_faults, open_chain_network,
                      random_dag_network, random_network, ring_network,
                      tree_network, uniform_default_probability_quadrature,
                      uniform_recovery_quadrature)

EN = ValuationSpec.eisenberg_noe()


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} [{status}] {name}: {detail}")
    assert passed, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_clearing_correspondence():
    # greatest clearing solutions reproduce the payment fixed point
    rng = np.random.default_rng(101)
    config = SolveConfig(epsilon=1e-13)
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        net = random_network(rng, max_banks=10)
        solution = greatest_solution(net, EN, config).solution
        payments = en_clearing_payments(net, solution)
        obligations = net.total_obligations()
        cashflow = net.external_assets - net.external_liabilities
        shares = np.divide(net.interbank_liabilities, obligations[:, None],
                           out=np.zeros_like(net.interbank_liabilities),
                           where=obligations[:, None] > 0)
        image = np.minimum(cashflow + shares.T @ payments, obligations)
        worst = max(worst, float(np.max(np.abs(payments - image))))
    elapsed = time.monotonic() - started
    report(1, "clearing-payment correspondence",
           worst <= 1e-9 and elapsed < 10.0,
           f"max residual {worst:.3g} over 200 networks in {elapsed:.2f}s")


def descends(bound, sweeps: int) -> bool:
    """Whether ``sweeps`` sweeps of the equity map of ``bound`` from face
    values never rise by more than rounding: ``F(E) <= E + 4 spacing(max|E|)``."""
    equities = bound.book_equity
    for _ in range(sweeps):
        image = bound.equity_map(equities)
        if np.any(image > equities + 4 * np.spacing(np.max(np.abs(equities)))):
            return False
        equities = image
    return True


def test_criterion_02_lattice_bracketing():
    rng = np.random.default_rng(101)  # regenerates criterion 1's corpus
    specs = [EN, ValuationSpec.rogers_veraart(0.5, 0.5), ValuationSpec.furfine(0.0)]
    worst_overlap = -np.inf
    monotone_ok = True
    for _ in range(200):
        net = random_network(rng, max_banks=10)
        for spec in specs:
            greatest = greatest_solution(net, spec)
            least = least_solution(net, spec)
            eps = greatest.epsilon
            overlap = float(np.max(least.solution - greatest.solution)) - 2.0 * eps
            worst_overlap = max(worst_overlap, overlap)
            monotone_ok = monotone_ok and descends(spec.bind(net), greatest.iterations)
    report(2, "lattice bracketing",
           worst_overlap <= 0.0 and monotone_ok,
           f"max (least - greatest - 2*eps) = {worst_overlap:.3g}, "
           f"monotone descent everywhere: {monotone_ok}")


def test_criterion_03_dag_termination_bound():
    # with an exact stop, the greatest solve settles within claim depth + 1
    # sweeps, at the solution of a solve with the default tolerance
    rng = np.random.default_rng(303)
    ok = True
    detail = ""
    for _ in range(100):
        net = random_dag_network(rng, max_banks=10)
        depth = claim_depth(net)
        exact = greatest_solution(net, EN, SolveConfig(epsilon=5e-324,
                                                       max_iterations=depth + 1))
        generic = greatest_solution(net, EN)
        gap = float(np.max(np.abs(exact.solution - generic.solution)))
        if not (exact.residual == 0.0 and exact.iterations <= depth + 1
                and gap <= 1e-13):
            ok = False
            detail = (f"depth {depth}: iterations {exact.iterations}, "
                      f"residual {exact.residual}, gap {gap:.3g}")
            break
    report(3, "acyclic termination bound", ok, detail or "100 random DAGs exact")


GBM_GRID = [(assets, sigma, tau, pbar)
            for assets in (0.5, 1.0, 3.0)
            for sigma in (0.2, 1.0)
            for tau in (0.1, 1.0)
            for pbar in (0.5, 2.0)]


def test_criterion_04_gbm_closed_forms_match_quadrature():
    started = time.monotonic()
    worst = 0.0
    for assets, sigma, tau, pbar in GBM_GRID:
        for equity in np.linspace(-2.0 * pbar - 1.0, assets + 0.5, 50):
            pd_gap = abs(gbm_default_probability(equity, assets, sigma, tau)
                         - gbm_default_probability_quadrature(equity, assets, sigma, tau))
            rho_gap = abs(gbm_endogenous_recovery(equity, assets, sigma, tau, pbar)
                          - gbm_recovery_quadrature(equity, assets, sigma, tau, pbar))
            worst = max(worst, pd_gap, rho_gap)
    elapsed = time.monotonic() - started
    report(4, "log-normal closed forms vs quadrature",
           worst <= 1e-8 and elapsed < 60.0,
           f"max gap {worst:.3g} over {len(GBM_GRID) * 50} points in {elapsed:.1f}s")


def test_criterion_05_uniform_closed_forms_match_integration():
    worst = 0.0
    for book in (0.5, 1.0, 3.0):
        for pbar in (0.5, 2.0):
            for equity in np.linspace(-2.0 * pbar - 1.0, book + 0.5, 50):
                pd_gap = abs(uniform_default_probability(equity, book)
                             - uniform_default_probability_quadrature(equity, book))
                rho_gap = abs(uniform_endogenous_recovery(equity, book, pbar)
                              - uniform_recovery_quadrature(equity, book, pbar))
                worst = max(worst, pd_gap, rho_gap)
    report(5, "uniform closed forms vs integration", worst <= 1e-10,
           f"max gap {worst:.3g}")


def test_criterion_06_maturity_limit_reaches_clearing_solutions():
    fixtures = [
        ("open chain", open_chain_network(), [2.2, 0.8, -0.2]),
        ("tree", tree_network(), [2.1, -0.9, 0.0]),
        ("closed chain", closed_chain_network(), [0.6, 1.1, 1.3]),
    ]
    details = []
    ok = True
    for name, net, reference in fixtures:
        spec = ValuationSpec.exante_en_gbm(sigma=1.0, maturity=1e-6, beta=1.0)
        solution = greatest_solution(net, spec).solution
        deviation = float(np.max(np.abs(solution - np.asarray(reference))))
        ok = ok and deviation < 1e-3
        details.append(f"{name} {deviation:.2e}")
    report(6, "short-maturity limit", ok, ", ".join(details))


def test_criterion_07_uniform_shock_limit_to_linear_debtrank():
    ring = ring_network()
    reference = greatest_solution(ring, ValuationSpec.linear_debtrank())
    deviations = []
    for level in range(21):
        spec = ValuationSpec.exante_en_uniform(beta=2.0 ** -level)
        solution = greatest_solution(ring, spec).solution
        deviations.append(float(np.max(np.abs(solution - reference.solution))))
    exact = greatest_solution(ring, ValuationSpec.exante_en_uniform(beta=0.0))
    zero_gap = float(np.max(np.abs(exact.solution - reference.solution)))
    ok = deviations[-1] < 1e-6 and zero_gap <= exact.epsilon
    report(7, "uniform-shock limit to linear distress propagation", ok,
           f"deviation at level 20 = {deviations[-1]:.3g}, "
           f"gap at beta=0 = {zero_gap:.3g}")


def test_criterion_08_stress_ordering_small_vs_large_shocks():
    # time to maturity is not pinned by the source figure; 25.0 keeps
    # sigma = 0.1 and makes both strict orderings representable in doubles
    ring = ring_network()
    exante = ValuationSpec.exante_en_gbm(sigma=0.1, maturity=25.0, beta=1.0)
    furfine = ValuationSpec.furfine(0.0)
    small_ex = stress_test(ring, exante, [0.02])[0].network_effect
    small_en = stress_test(ring, EN, [0.02])[0].network_effect
    large_ex = stress_test(ring, exante, [0.9])[0].network_effect
    large_en = stress_test(ring, EN, [0.9])[0].network_effect
    small_ff = stress_test(ring, furfine, [0.02])[0].network_effect
    large_ff = stress_test(ring, furfine, [0.9])[0].network_effect
    ok = (small_ex > small_en) and (large_ex < large_en) \
        and 0.0 <= small_ff <= large_ff <= 1.0
    report(8, "before-maturity network effects cross the at-maturity ones", ok,
           f"alpha=0.02: {small_ex:.4f} > {small_en:.4f}; "
           f"alpha=0.9: {large_ex:.8f} < {large_en:.8f}")


def test_criterion_09_single_name_discount_gap_peaks_inside():
    ring = ring_network()
    spec = ValuationSpec.exante_en_gbm(sigma=0.1, maturity=25.0, beta=1.0)
    grid = np.linspace(0.0, 1.0, 50)
    comparisons = merton_vs_network_discount(ring, spec, grid)
    floor = min(float(c.difference.min()) for c in comparisons)
    peaks = np.array([float(c.difference.max()) for c in comparisons])
    top = int(np.argmax(peaks))
    ok = floor >= -1e-9 and 0 < top < len(grid) - 1
    report(9, "single-name vs network discount gap", ok,
           f"min difference {floor:.3g}, max {peaks[top]:.4f} at "
           f"alpha={grid[top]:.3f} (grid point {top}/49)")


def test_criterion_10_feasibility_and_order_preservation():
    rng = np.random.default_rng(1010)
    nets = [ring_network(), open_chain_network()] + \
        [random_network(rng, nonnegative_cashflow=False) for _ in range(4)]

    def random_specs():
        yield EN
        yield ValuationSpec.linear_debtrank()
        for _ in range(6):
            yield ValuationSpec.rogers_veraart(rng.uniform(), rng.uniform())
            yield ValuationSpec.furfine(rng.uniform())
            yield ValuationSpec.exante_en_gbm(rng.uniform(0.05, 2.0),
                                              rng.uniform(0.05, 4.0),
                                              rng.uniform())
            yield ValuationSpec.exante_en_uniform(rng.uniform())

    faults = [fault for spec in random_specs() for net in nets
              for fault in lattice_faults(spec, net)]

    specs = [EN, ValuationSpec.rogers_veraart(0.3, 0.7),
             ValuationSpec.furfine(0.4), ValuationSpec.linear_debtrank(),
             ValuationSpec.exante_en_gbm(0.8, 0.5),
             ValuationSpec.exante_en_uniform(0.6)]
    order_ok = True
    for k in range(1000):
        net = nets[k % len(nets)]
        spec = specs[k % len(specs)]
        lower = net.equity_lower_bound() - 1.0
        upper = net.book_equity() + 1.0
        low = rng.uniform(lower, upper)
        high = low + rng.uniform(0.0, 1.0, net.n)
        bound = spec.bind(net)
        if np.any(bound.equity_map(low) > bound.equity_map(high) + 1e-12):
            order_ok = False
            break
    report(10, "feasibility and map order preservation", not faults and order_ok,
           faults[0] if faults else "all factors feasible; 1000 ordered pairs preserved")


def test_criterion_11_monte_carlo_determinism_and_degenerate_limit():
    net = open_chain_network()
    reference = greatest_solution(net, EN).solution
    first = monte_carlo_global_valuation(net, sigma=1e-8, tau=1.0, beta=1.0,
                                         samples=500, seed=0)
    second = monte_carlo_global_valuation(net, sigma=1e-8, tau=1.0, beta=1.0,
                                          samples=500, seed=0)
    gap = float(np.max(np.abs(first.mean - reference)))
    identical = (np.array_equal(first.mean, second.mean)
                 and np.array_equal(first.std_error, second.std_error))
    ok = gap < 1e-6 and identical and first.valid
    report(11, "monte carlo determinism and degenerate-volatility limit", ok,
           f"gap to clearing solution {gap:.3g}, bit-identical reruns: {identical}")
