"""Property tests on small random networks, which include banks without
obligations and banks whose external liabilities exceed their external
assets: the pro-rata clearing map against its payment-space form, the
solution lattice (a solve from any start lies between the least and the
greatest solution), greatest solutions that clear as the payment-space
oracle does, losses that grow with the shock, and the network file
round trip, on files that repeat edges and leave banks without edges;
result files that give back every bank id and value bit for bit, and JSON
text that is ``json.dumps(indent=2)`` byte for byte; bound factors that are
their public functions bit for bit; every valuation family feasible (each
factor in [0, 1] and nondecreasing), with iterates that fall from the face
values and rise from the lower bounds; greatest solves of acyclic networks
under every borrower-only family that stop exactly within claim depth + 1
sweeps; solves that a change of unit by a power of two changes in nothing
but the unit; and a CLI that, on any perturbed scenario file, exits with 0,
1 or 2 only and leaves no file behind on 2."""
import contextlib
import copy
import csv
import io
import json
import os
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from neva import (FinancialNetwork, SolveConfig, SolveReport, StressResult,
                  ValuationSpec, dump_network, en_clearing_payments,
                  greatest_solution, least_solution, load_network,
                  monte_carlo_global_valuation, serialize_results, solve, stress_test)
from neva.cli import run_command
from neva.files import SCENARIO_KINDS, _render
from neva.valuation import EXTERNAL_FAMILIES, INTERBANK_FAMILIES, en_interbank

from conftest import (claim_depth, en_clearing_oracle, infeasible_factors,
                      random_network, rescaled)

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
    # one sample at beta = 1 is, bit for bit, the greatest Eisenberg-Noe solve
    # of the network holding that sample's terminal external assets: under the
    # default tolerance, that of the drawn book equities, and under a given one
    normals = np.random.default_rng(seed).standard_normal((1, net.n))
    sigmas = np.full(net.n, sigma)
    terminal = net.external_assets * np.exp(sigmas * np.sqrt(tau) * normals
                                            - 0.5 * sigmas * sigmas * tau)
    drawn = FinancialNetwork(net.bank_ids, terminal[0], net.external_liabilities,
                             net.interbank_liabilities)
    for config in (None, SolveConfig(epsilon=greatest_solution(net, EN).epsilon)):
        result = monte_carlo_global_valuation(net, sigma, tau, 1.0, 1, seed, config)
        reference = greatest_solution(drawn, EN, config)
        assert result.dropped == 0 and reference.converged
        assert np.array_equal(result.mean, reference.solution)


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
    # the solver's stack of the binding, its shared constants tiled, maps alike
    assert np.array_equal(bound.stack(rows).equity_map(equities), bound.equity_map(equities))


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
    config = SolveConfig(epsilon=greatest_solution(net, EN).epsilon,
                         max_iterations=10_000)
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


@given(networks())
def test_greatest_solution_clears_like_the_oracle(net):
    # acceptance criterion 1 on random networks: the greatest Eisenberg-Noe
    # solution's payments are the payment-space clearing fixed point
    solution = greatest_solution(net, EN, SolveConfig(epsilon=1e-13)).solution
    assert np.max(np.abs(en_clearing_payments(net, solution) - en_clearing_oracle(net))
                  ) <= 1e-9 * _scale(net, net.external_assets)


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
        return SolveReport(solution, 3, converged, 1.0, "custom", 1e-10)

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


# JSON cells: floats that print as NaN, Infinity or -0.0, labels CSV quotes
# or that are not ASCII, and the other values a table holds
LABELS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                   st.text('Ab "\\\',;%\n\réß中€', max_size=5))


@st.composite
def tables(draw):
    """A random result table and its rows as Python values."""
    rows = draw(st.integers(0, 5))
    header = draw(st.lists(st.text('ab "%é\n', max_size=4), min_size=1, max_size=4,
                           unique=True))
    columns, cells = [], []
    for _ in header:
        if draw(st.booleans()):  # a float array; index len(values) is a null cell
            values = np.array(draw(st.lists(st.floats(), max_size=4)), dtype=float)
            options = values.tolist() + [None]
        else:
            options = values = draw(st.lists(LABELS, min_size=1, max_size=4))
        index = draw(st.lists(st.integers(0, len(options) - 1), min_size=rows,
                              max_size=rows))
        columns.append((values, np.array(index, dtype=np.intp)))
        cells.append([options[k] for k in index])
    extra = draw(st.dictionaries(st.text(max_size=3).filter(lambda key: key not in
                                                              ("kind", "rows")),
                                 LABELS | st.lists(LABELS, max_size=3), max_size=3))
    kind = draw(st.text(max_size=5))
    return (kind, header, columns, extra), {
        "kind": kind, **extra, "rows": [dict(zip(header, row)) for row in zip(*cells)]}


@given(tables())
def test_json_output_is_that_of_json_dumps(drawn):
    # the cells are encoded column by column and spliced into the document;
    # the text must be json.dumps(indent=2) of the same rows, byte for byte
    table, document = drawn
    assert _render(*table, "json") == json.dumps(document, indent=2) + "\n"


def _drawn_spec(n, kind, external, beta, rng) -> ValuationSpec:
    """``kind`` with ``external`` valuation for ``n`` banks: ``beta`` is the
    value of every parameter in [0, 1], the others are drawn."""
    parameters = {"alpha": beta, "beta": beta, "recovery": beta,
                  "maturity": rng.uniform(0.01, 5.0),
                  "sigma": tuple(rng.uniform(0.05, 1.0, n))}
    params = INTERBANK_FAMILIES[kind].params + EXTERNAL_FAMILIES[external].params
    return ValuationSpec(kind, external, **{name: parameters[name] for name in params})


def _bind_drawn(net, kind, external, rows, beta, column, rng) -> tuple:
    """``_drawn_spec`` bound to a ``(rows, n)`` stack of external assets, some
    of them zero, and that stack; given ``column`` a ``(rows, 1)`` maturity
    or beta column stands in for the spec's value."""
    assets = net.external_assets * rng.uniform(0.2, 2.0, (rows, net.n))
    assets[rng.random(assets.shape) < 0.3] = 0.0
    spec = _drawn_spec(net.n, kind, external, beta, rng)
    varying = [name for name in ("maturity", "beta")
               if name in INTERBANK_FAMILIES[kind].params + EXTERNAL_FAMILIES[external].params]
    columns = ({varying[0]: rng.uniform(0.01, 1.0, (rows, 1))} if column and varying
               else {})
    return spec.bind(net, assets, **columns), assets


@given(networks(), st.sampled_from(sorted(INTERBANK_FAMILIES)), st.integers(1, 3),
       st.floats(0.0, 1.0, exclude_max=True), st.booleans(), st.integers(0, 2**32 - 1))
def test_bound_factors_are_the_public_functions(net, kind, rows, beta, column, seed):
    # bind computes each family's equity-independent constants once and its
    # kernel the rest every sweep; the bound factor, on a stack and on the
    # solver's stack after it kept some rows, must be the public function bit
    # for bit on every branch: banks without obligations or external assets,
    # equities on both sides of 0 and at -pbar and at Ae, per-bank sigma,
    # beta < 1 and a (rows, 1) column
    rng = np.random.default_rng(seed)
    bound, assets = _bind_drawn(net, kind, "unit", rows, beta, column, rng)
    family = INTERBANK_FAMILIES[kind]
    pick = rng.random(assets.shape)
    equities = np.select([pick < 0.2, pick < 0.4, pick < 0.5],
                         [np.broadcast_to(-net.total_obligations(), assets.shape),
                          assets, 0.0],
                         rng.normal(0.0, 2.0, assets.shape))
    expected = family.factor(equities, **{name: bound.constants[name]
                                          for name in family.reads})
    assert np.array_equal(bound.borrower_factors(equities), expected)
    stack, kept = bound.stack(rows), np.arange(rows)
    for _ in range(rows):  # drop a drawn row at a time: the rest move up, in order
        assert np.array_equal(stack.borrower_factors(equities[kept]), expected[kept])
        keep = np.flatnonzero(np.arange(len(kept)) != rng.integers(len(kept)))
        kept = kept[keep]
        stack.keep(keep)


@given(networks(), st.integers(1, 3), st.floats(0.0, 1.0), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_every_family_is_feasible(net, rows, beta, column, seed):
    # the paper's conditions for existence, uniqueness and convergence: each
    # bound factor (borrower, lender, external) lies in [0, 1] and does not
    # decrease in equity; checked for every pair of table keys along a grid
    # sorted entry by entry, through the lattice and beyond it, and at the
    # branch points 0, -pbar, Ae and Ae - pbar
    rng = np.random.default_rng(seed)
    obligations, lower = net.total_obligations(), net.equity_lower_bound()
    checked = set()
    for kind in INTERBANK_FAMILIES:
        for external in EXTERNAL_FAMILIES:
            bound, assets = _bind_drawn(net, kind, external, rows, beta, column, rng)
            marks = [0.0, -obligations, assets, assets - obligations, lower,
                     bound.book_equity]
            grid = np.concatenate(
                [np.broadcast_to(mark, (1, rows, net.n)) for mark in marks]
                + [rng.uniform(lower - 1.0, bound.book_equity + 1.0, (24, rows, net.n))])
            assert infeasible_factors(bound, np.sort(grid, axis=0)) == []
            checked.add((bound.spec.interbank_kind, bound.spec.external_kind))
    # a family added to either table is checked here too
    assert checked == {(kind, external) for kind in INTERBANK_FAMILIES
                       for external in EXTERNAL_FAMILIES}


@given(networks(), st.integers(1, 3), st.floats(0.0, 1.0), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_iterates_fall_from_face_values_and_rise_from_the_lower_bounds(
        net, rows, beta, column, seed):
    # what the bracket solves rest on: under every pair of table keys the
    # equity map is monotone and maps [m, M] into itself, so its iterates
    # fall from M and rise from m, each sweep up to the rounding of the
    # largest term a map value is summed from, also once they have settled
    rng = np.random.default_rng(seed)
    for kind in INTERBANK_FAMILIES:
        for external in EXTERNAL_FAMILIES:
            bound, assets = _bind_drawn(net, kind, external, rows, beta, column, rng)
            tolerance = 16 * ULP * _scale(net, assets)
            for sign, equities in ((1.0, bound.book_equity),
                                   (-1.0, np.tile(net.equity_lower_bound(), (rows, 1)))):
                for _ in range(20):
                    image = bound.equity_map(equities)
                    assert np.all(sign * (image - equities) <= tolerance)
                    equities = image


@st.composite
def acyclic_networks(draw, max_banks=8):
    """A random network whose banks owe only banks later in a drawn order, so
    its claims form no cycle, with operating cash flow of either sign."""
    n = draw(st.integers(1, max_banks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    liabilities = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    order = rng.permutation(n)
    return FinancialNetwork([f"B{k}" for k in range(n)], rng.uniform(0.5, 3.0, n),
                            rng.uniform(0.0, 4.0, n), liabilities[np.ix_(order, order)])


@given(acyclic_networks(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_acyclic_greatest_solves_settle_within_depth_plus_one(net, beta, seed):
    # with unit external valuation and borrower-only factors a bank's value
    # reads only the equities of deeper banks: the sources are exact at the
    # face values and each sweep settles the next layer of claim depth, so an
    # exact stop ends within depth + 1 sweeps at a fixed point, bit for bit
    depth = claim_depth(net)
    config = SolveConfig(epsilon=5e-324, max_iterations=depth + 1)
    rng = np.random.default_rng(seed)
    borrower_only = [kind for kind, family in INTERBANK_FAMILIES.items()
                     if family.lender is None]
    assert "eisenberg_noe" in borrower_only and "rogers_veraart" not in borrower_only
    for kind in borrower_only:
        spec = _drawn_spec(net.n, kind, "unit", beta, rng)
        report = greatest_solution(net, spec, config)
        assert report.converged and report.residual == 0.0
        assert report.iterations <= depth + 1
        assert np.array_equal(spec.bind(net).equity_map(report.solution), report.solution)


@given(networks(max_banks=10), st.integers(-3, 20), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
# the first sweep of this network sums a bank's claims in another order than
# its book equity and rises by an ulp, more than 1e-12 once sheets top 4000
@example(random_network(np.random.default_rng(8)), 20, 0.5, 0)
def test_a_power_of_two_unit_changes_nothing_but_the_unit(net, k, beta, seed):
    # every amount times 2**k is an exact change of unit: each map value, so
    # each iterate, and the tolerance scale by 2**k bit for bit, and the
    # greatest and the least solve under every pair of table keys agree with
    # the unscaled ones in all but the unit, warnings included
    unit = 2.0 ** k
    scaled = rescaled(net, unit)
    config = SolveConfig(epsilon=greatest_solution(net, EN).epsilon)
    scaled_config = SolveConfig(epsilon=unit * config.epsilon)
    rng = np.random.default_rng(seed)
    for kind in INTERBANK_FAMILIES:
        for external in EXTERNAL_FAMILIES:
            spec = _drawn_spec(net.n, kind, external, beta, rng)
            for start in ("face_values", "lower_bounds"):
                plain = solve(net, spec, config, start)
                other = solve(scaled, spec, scaled_config, start)
                assert np.array_equal(other.solution, unit * plain.solution)
                assert ((other.iterations, other.converged, other.warnings)
                        == (plain.iterations, plain.converged, plain.warnings))


# A valid document per scenario kind, with every optional field and block
# the kind reads.
SCENARIOS = {
    "solve": {"valuation": {"external": {"kind": "unit"},
                            "interbank": {"kind": "eisenberg_noe"}},
              "solver": {"epsilon": 1e-9, "max_iterations": 100, "start": "lower_bounds"},
              "scenario": {"kind": "solve"}},
    "stress": {"valuation": {"external": {"kind": "rogers_veraart", "alpha": 0.5},
                             "interbank": {"kind": "rogers_veraart", "beta": 0.5}},
               "solver": {"epsilon": 1e-9},
               "scenario": {"kind": "stress",
                            "alpha_grid": {"min": 0.0, "max": 0.5, "points": 3}}},
    "limit_maturity": {"solver": {"max_iterations": 1000},
                       "scenario": {"kind": "limit_maturity", "sigma": 0.5,
                                    "tau_sequence": [1.0, 0.5], "beta": 0.5}},
    "limit_beta": {"solver": {"epsilon": 1e-9},
                   "scenario": {"kind": "limit_beta",
                                "beta_sequence": {"min": 0.25, "max": 1.0, "points": 2}}},
    "curve": {"scenario": {"kind": "curve", "equity_grid": [-1.0, 0.0, 1.0], "families": [
        {"family": "rogers_veraart", "obligations": 2.0, "beta": 0.5, "lender_equity": -1.0},
        {"family": "exante_en_gbm", "external_assets": 1.0, "obligations": 2.0,
         "beta": 1.0, "sigma": 1.0, "maturity": 1.0}]}},
    "mc_global": {"solver": {"epsilon": 1e-9},
                  "scenario": {"kind": "mc_global", "sigma": 0.5, "tau": 1.0, "beta": 0.5,
                               "samples": 10, "seed": 3}},
    "discount": {"valuation": {"interbank": {"kind": "exante_en_gbm", "sigma": 0.5,
                                             "maturity": 1.0, "beta": 0.5}},
                 "scenario": {"kind": "discount", "alpha_grid": [0.0, 0.5]}},
}
NETWORK = {"banks": [{"id": bank, "external_assets": assets, "external_liabilities": 0.5}
                     for bank, assets in (("A", 1.0), ("B", 0.5), ("C", 2.0))],
           "liabilities": [{"debtor": "A", "creditor": "B", "amount": 1.0},
                           {"debtor": "B", "creditor": "C", "amount": 1.0}]}
HUGE = "@1e400"  # written as the JSON number 1e400, which parses as infinity
BAD_VALUES = [None, "x", True, -1, HUGE]


def _sites(node, path=()) -> list:
    """``(path of a container, key in it)`` for every value of ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    sites = []
    for key, value in items:
        sites.append((path, key))
        if isinstance(value, (dict, list)):
            sites.extend(_sites(value, path + (key,)))
    return sites


def _run(kind, document, tmp) -> tuple:
    """Exit status, standard error and output path of one CLI run in ``tmp``."""
    (tmp / "net.json").write_text(json.dumps(NETWORK), encoding="utf-8")
    (tmp / "scn.json").write_text(json.dumps(document).replace(f'"{HUGE}"', "1e400"),
                                  encoding="utf-8")
    out = tmp / "out.csv"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = run_command([kind.replace("_", "-"), "--network", str(tmp / "net.json"),
                              "--scenario", str(tmp / "scn.json"), "--output", str(out)])
    return status, stderr.getvalue(), out


def test_every_scenario_kind_has_a_valid_document(tmp_path):
    assert set(SCENARIOS) == set(SCENARIO_KINDS)
    for kind, document in SCENARIOS.items():
        assert _run(kind, document, tmp_path)[0] == 0, kind


@pytest.mark.parametrize("kind", sorted(SCENARIO_KINDS))
@given(st.data())
def test_cli_exits_only_with_0_1_2(kind, data):
    document = copy.deepcopy(SCENARIOS[kind])
    path, key = data.draw(st.sampled_from(_sites(document)))
    container = document
    for step in path:
        container = container[step]
    change = data.draw(st.sampled_from(["drop", "add"] + BAD_VALUES))
    if change == "drop":
        del container[key]
    elif change == "add":
        # into the value when it is an object, else into its own object
        value = container[key]
        target = value if isinstance(value, dict) else (
            container if isinstance(container, dict) else document)
        target["unread"] = 1
    else:
        container[key] = change
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        status, stderr, out = _run(kind, document, tmp)
        assert status in (0, 1, 2)
        assert "Traceback" not in stderr
        assert out.exists() == (status != 2)
        assert not list(tmp.glob(".neva-*"))
