"""Property tests on small random networks, which include banks without
obligations and banks whose external liabilities exceed their external
assets: the pro-rata clearing map against its payment-space form, the
solution lattice (a solve from any start lies between the least and the
greatest solution), losses that grow with the shock, and the network file
round trip, on files that repeat edges and leave banks without edges; and
result files that give back every bank id and value bit for bit."""
import csv
import io
import json
import os
import tempfile
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from neva import (FinancialNetwork, SolveConfig, SolveReport, StressResult,
                  ValuationSpec, default_epsilon, dump_network, en_clearing_payments,
                  greatest_solution, least_solution, load_network,
                  monte_carlo_global_valuation, serialize_results, solve, stress_test)
from neva.valuation import en_interbank

from conftest import en_clearing_oracle

EN = ValuationSpec.eisenberg_noe()
ULP = np.finfo(float).eps


@st.composite
def networks(draw, max_banks=6):
    """A random network whose first banks (at least one, possibly all but
    one) owe nothing, with operating cash flow of either sign."""
    n = draw(st.integers(2, max_banks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    debt_free = draw(st.integers(1, n - 1))
    assets = rng.uniform(0.5, 3.0, n)
    external_liabilities = rng.uniform(0.0, 4.0, n)
    liabilities = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(liabilities, 0.0)
    liabilities[:debt_free] = 0.0
    return FinancialNetwork([f"B{k}" for k in range(n)], assets,
                            external_liabilities, liabilities)


def _scale(net, assets) -> float:
    """Largest magnitude a map value is summed from."""
    terms = (np.abs(assets) + net.external_liabilities + net.total_obligations()
             + net.interbank_liabilities.sum(axis=0))
    return float(max(1.0, np.max(terms)))


@given(networks(), st.floats(0.05, 1.0), st.floats(0.1, 2.0),
       st.integers(0, 2**32 - 1))
def test_monte_carlo_sample_is_the_clearing_solution(net, sigma, tau, seed):
    # one sample at beta = 1 is the greatest Eisenberg-Noe solution of the
    # network holding that sample's terminal external assets
    config = SolveConfig(epsilon=default_epsilon(net))
    result = monte_carlo_global_valuation(net, sigma, tau, 1.0, 1, seed, config)
    normals = np.random.default_rng(seed).standard_normal((1, net.n))
    sigmas = np.full(net.n, sigma)
    terminal = net.external_assets * np.exp(sigmas * np.sqrt(tau) * normals
                                            - 0.5 * sigmas * sigmas * tau)
    drawn = FinancialNetwork(net.bank_ids, terminal[0], net.external_liabilities,
                             net.interbank_liabilities)
    reference = greatest_solution(drawn, EN, config)
    assert result.dropped == 0 and reference.converged
    assert np.max(np.abs(result.mean - reference.solution)) <= 10 * config.epsilon


@given(networks(), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_payment_space_map_is_the_factor_map(net, beta, rows, seed):
    # the haircut family's equity map, factors times liabilities, equals
    # pro-rata clearing written in payment space, cash + payments @ (L / pbar)
    # with payments clip(E + pbar, 0, pbar) and the haircut where E < 0, on a
    # stack of equities spread over and beyond the lattice [m, M]
    rng = np.random.default_rng(seed)
    assets = net.external_assets * rng.uniform(0.2, 2.0, (rows, net.n))
    obligations = net.total_obligations()
    bound = ValuationSpec.eisenberg_noe_haircut(beta).bind(net, assets)
    lower = net.equity_lower_bound()
    equities = lower - 1.0 + rng.random((rows, net.n)) * (bound.book_equity - lower + 2.0)
    equities[:, ::2] = np.minimum(equities[:, ::2], -1e-3)  # defaulted banks
    shares = (net.interbank_liabilities
              / np.where(obligations > 0, obligations, 1.0)[:, np.newaxis])
    payments = (np.clip(equities + obligations, 0.0, obligations)
                * np.where(equities < 0, beta, 1.0))
    payment_map = assets - net.external_liabilities - obligations + payments @ shares
    tolerance = 16 * ULP * _scale(net, assets)
    assert np.max(np.abs(bound.equity_map(equities) - payment_map)) <= tolerance
    assert np.array_equal(bound.rows(np.arange(rows)).equity_map(equities),
                          bound.equity_map(equities))


LATTICE_SPECS = [EN, ValuationSpec.eisenberg_noe_haircut(0.5),
                 ValuationSpec.linear_debtrank(), ValuationSpec.exante_en_uniform(0.5)]


@given(networks(), st.sampled_from(LATTICE_SPECS), st.integers(0, 2**32 - 1))
def test_a_solve_from_any_start_lies_between_the_brackets(net, spec, seed):
    # from m <= start <= M, monotone sweeps keep F^k(m) <= F^k(start) <= F^k(M);
    # the bracket iterates are monotone, so a custom solve that runs longer
    # than they do, up to its sweep budget without converging (it may cycle
    # between fixed points), stays inside them too
    lower, upper = net.equity_lower_bound(), net.book_equity()
    start = lower + np.random.default_rng(seed).random(net.n) * (upper - lower)
    config = SolveConfig(epsilon=default_epsilon(net), max_iterations=10_000)
    greatest = greatest_solution(net, spec, config)
    least = least_solution(net, spec, config)
    custom = solve(net, spec, config, start)
    assert greatest.converged and least.converged
    assert np.all(least.solution <= custom.solution + config.epsilon)
    assert np.all(custom.solution <= greatest.solution + config.epsilon)


@given(networks(), st.sampled_from([EN, ValuationSpec.eisenberg_noe_haircut(0.5),
                                    ValuationSpec.rogers_veraart(0.5, 0.5)]),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
def test_stress_losses_grow_with_the_shock(net, spec, alphas):
    # less external assets lower the map everywhere, and so the greatest solution
    results = stress_test(net, spec, sorted(alphas))
    for smaller, larger in zip(results, results[1:]):
        assert smaller.report.converged and larger.report.converged
        epsilon = max(smaller.report.epsilon, larger.report.epsilon)
        assert np.all(larger.delta_equity >= smaller.delta_equity - epsilon)


@given(networks(), st.floats(-3.0, 3.0))
def test_clearing_payments_match_the_factor_and_the_oracle(net, shift):
    obligations = net.total_obligations()
    equities = net.book_equity() + shift
    assert np.max(np.abs(en_clearing_payments(net, equities)
                         - obligations * en_interbank(equities, obligations))
                  ) <= 4 * ULP * max(1.0, np.max(obligations))
    solution = greatest_solution(net, EN, SolveConfig(epsilon=1e-13)).solution
    assert np.allclose(en_clearing_payments(net, solution), en_clearing_oracle(net),
                       atol=1e-8)


@st.composite
def network_files(draw, max_banks=6, max_edges=15):
    """A network file document plus its edges as (debtor, creditor, amount)
    index triples in file order; edges may repeat a pair, and banks past a
    drawn count have none."""
    n = draw(st.integers(2, max_banks))
    active = draw(st.integers(2, n))
    amount = st.floats(0.0, 1e3, allow_subnormal=False)
    edges = []
    for debtor, shift, value in draw(st.lists(st.tuples(
            st.integers(0, active - 1), st.integers(1, active - 1), amount),
            max_size=max_edges)):
        edges.append((debtor, (debtor + shift) % active, value))
    assets = draw(st.lists(st.tuples(amount, amount), min_size=n, max_size=n))
    ids = [f"B{k}" for k in range(n)]
    return {"banks": [{"id": bank, "external_assets": a, "external_liabilities": b}
                      for bank, (a, b) in zip(ids, assets)],
            "liabilities": [{"debtor": ids[d], "creditor": ids[c], "amount": value}
                            for d, c, value in edges]}, edges


@given(network_files())
def test_network_file_round_trip(drawn):
    document, edges = drawn
    n = len(document["banks"])
    expected = np.zeros((n, n))
    for debtor, creditor, amount in edges:  # repeated edges add up in file order
        expected[debtor, creditor] += amount
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "net.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        net = load_network(path)
        assert np.array_equal(net.interbank_liabilities, expected)
        dump_network(net, path)
        again = load_network(path)
    assert again.bank_ids == net.bank_ids == tuple(b["id"] for b in document["banks"])
    for loaded in (net, again):
        assert np.array_equal(loaded.external_assets,
                              [b["external_assets"] for b in document["banks"]])
        assert np.array_equal(loaded.external_liabilities,
                              [b["external_liabilities"] for b in document["banks"]])
    assert np.array_equal(again.interbank_liabilities, expected)


# ids that CSV must quote (quotes, commas, line breaks) or that are not ASCII
BANK_IDS = st.lists(st.text('Ab "\',;\n\r\u00e9\u00df\u4e2d\u20ac', max_size=5),
                    min_size=1, max_size=4, unique=True)
EDGE_FLOATS = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
ASSETS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308]), st.floats(0.0, 1e308))


def _bits(value):
    """A float's exact value, sign of zero included; None stays None."""
    return None if value is None else float(value).hex()


def _csv_rows(text) -> list:
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    return [dict(zip(header, row)) for row in rows]


def _json_rows(text) -> list:
    return json.loads(text)["rows"]


@given(BANK_IDS, st.data())
def test_result_files_round_trip_exactly(ids, data):
    n = len(ids)
    net = FinancialNetwork(ids, data.draw(st.lists(ASSETS, min_size=n, max_size=n)),
                           np.zeros(n), np.zeros((n, n)))
    solution = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)))

    def report(converged):
        return SolveReport(solution, 3, converged, 1.0, None, "custom", 1e-10)

    # an unconverged point has no network effect: an empty cell, null in JSON
    points = data.draw(st.lists(st.tuples(
        FLOATS, st.lists(FLOATS, min_size=n, max_size=n), st.none() | FLOATS),
        min_size=1, max_size=3))
    stress = [StressResult(alpha, np.full(n, alpha), report(effect is not None),
                           np.array(delta), effect, None)
              for alpha, delta, effect in points]
    solved = Counter((bank, _bits(book), _bits(equity)) for bank, book, equity
                     in zip(ids, net.book_equity(), solution))
    stressed = Counter((_bits(alpha), bank, _bits(loss), _bits(effect))
                       for alpha, delta, effect in points
                       for bank, loss in zip(ids, delta))
    for fmt, parse, empty in (("csv", _csv_rows, ""), ("json", _json_rows, None)):
        rows = parse(serialize_results(report(False), fmt, net))
        assert Counter((row["bank_id"], _bits(row["book_equity"]), _bits(row["equity"]))
                       for row in rows) == solved
        rows = parse(serialize_results(stress, fmt, net))
        assert Counter((_bits(row["alpha"]), row["bank_id"], _bits(row["delta_equity"]),
                        _bits(None if row["network_effect"] == empty
                              else row["network_effect"]))
                       for row in rows) == stressed
