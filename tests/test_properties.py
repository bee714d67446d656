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
factor in [0, 1] and nondecreasing), and either rejected or finite, never
NaN, for amounts and log-normal parameters anywhere in the float range,
with iterates that fall from the face values and rise from the lower
bounds; greatest solves of acyclic networks
under every borrower-only family that stop exactly within claim depth + 1
sweeps; solves that a change of unit by a power of two changes in nothing
but the unit; the Monte Carlo, depth + 1 and unit properties draw sparse
networks too, whose sweeps sum over the edges; claim sums over the edges
that are the dense product; and a CLI that, on any perturbed scenario
file, exits with 0, 1 or 2 only and leaves no file behind on 2."""
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
from hypothesis import example, given, settings, strategies as st

from neva import (FinancialNetwork, NetworkError, SolveConfig, SolveReport, SpecError,
                  StressResult, ValuationSpec, dump_network, en_clearing_payments,
                  greatest_solution, least_solution, load_network,
                  monte_carlo_global_valuation, serialize_results, solve, stress_test)
from neva import files
from neva.cli import run_command
from neva.files import SCENARIO_KINDS, _quoted, _render
from neva.solver import _certify
from neva.valuation import EXTERNAL_FAMILIES, INTERBANK_FAMILIES, en_interbank

from conftest import (claim_depth, en_clearing_oracle, infeasible_factors,
                      random_network, rescaled)

EN = ValuationSpec.eisenberg_noe()
ULP = np.finfo(float).eps


@st.composite
def balance_sheets(draw, max_banks=6):
    """The bank ids, external assets, external liabilities and liability
    matrix of a random network whose first banks (at least one, possibly all
    but one) owe nothing, with operating cash flow of either sign."""
    n = draw(st.integers(2, max_banks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    debt_free = draw(st.integers(1, n - 1))
    assets = rng.uniform(0.5, 3.0, n)
    external_liabilities = rng.uniform(0.0, 4.0, n)
    liabilities = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(liabilities, 0.0)
    liabilities[:debt_free] = 0.0
    return [f"B{k}" for k in range(n)], assets, external_liabilities, liabilities


def networks(max_banks=6):
    """The network of ``balance_sheets``, built by the dense constructor."""
    return balance_sheets(max_banks).map(lambda sheets: FinancialNetwork(*sheets))


@st.composite
def sparse_networks(draw, acyclic=False):
    """A random network of 80 to 160 banks with a mean degree of at most
    n/40, whose claim sums therefore run over its edges; banks may owe
    nothing or hold no claim, and cash flow has either sign.  Given
    ``acyclic``, banks owe only banks later in a drawn order."""
    n = draw(st.integers(80, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, n * n // 40))
    debtors = rng.integers(0, n, count)
    creditors = (debtors + rng.integers(1, n, count)) % n
    if acyclic:
        rank = rng.permutation(n)
        later = rank[debtors] < rank[creditors]
        debtors, creditors = (np.where(later, debtors, creditors),
                              np.where(later, creditors, debtors))
    liabilities = np.zeros((n, n))
    np.add.at(liabilities, (debtors, creditors), rng.uniform(0.1, 2.0, count))
    return FinancialNetwork([f"B{k}" for k in range(n)], rng.uniform(0.5, 3.0, n),
                            rng.uniform(0.0, 4.0, n), liabilities)


def _scale(net, assets) -> float:
    """Largest magnitude a map value is summed from."""
    terms = (np.abs(assets) + net.external_liabilities + net.total_obligations()
             + net.interbank_liabilities.sum(axis=0))
    return float(max(1.0, np.max(terms)))


def _monte_carlo_network() -> FinancialNetwork:
    """A 50-bank network of mean degree 10 and thin capital, as dense as the
    Monte Carlo benchmark's: its claim sums take the BLAS product."""
    n = 50
    rng = np.random.default_rng(50)
    liabilities = rng.lognormal(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(liabilities, 0.0)
    claims, obligations = liabilities.sum(axis=0), liabilities.sum(axis=1)
    assets = 3.0 * claims.mean() * rng.lognormal(-0.125, 0.5, n)
    capital = rng.uniform(0.03, 0.10, n)
    external_liabilities = np.maximum((1.0 - capital) * (assets + claims) - obligations, 0.0)
    return FinancialNetwork([f"B{k}" for k in range(n)], assets, external_liabilities,
                            liabilities)


@given(networks() | sparse_networks(), st.floats(0.05, 1.0), st.floats(0.1, 2.0),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(_monte_carlo_network(), 0.2, 1.0, 40, 1001)
def test_monte_carlo_sample_is_the_clearing_solution(net, sigma, tau, samples, seed):
    # each sample at beta = 1 is the greatest Eisenberg-Noe solve of the
    # network holding that sample's terminal external assets.  Under the
    # default tolerance it stops early within its certified bound above the
    # lone solve (uncertified, a bound of 0), or below it by at most one step
    # of the default tolerance, that of the drawn book equities; rounding aside.
    # Under a given tolerance, on the edge form a sample is that solve bit for
    # bit, so the mean and standard error are those of the lone solves; on the
    # dense form BLAS rounds a product by the stack's row count, and the
    # samples agree with the lone solves within their tolerance
    normals = np.random.default_rng(seed).standard_normal((samples, net.n))
    sigmas = np.full(net.n, sigma)
    terminal = net.external_assets * np.exp(sigmas * np.sqrt(tau) * normals
                                            - 0.5 * sigmas * sigmas * tau)
    for config in (None, SolveConfig(epsilon=greatest_solution(net, EN).epsilon)):
        result = monte_carlo_global_valuation(net, sigma, tau, 1.0, samples, seed, config)
        references = [greatest_solution(FinancialNetwork(
            net.bank_ids, assets, net.external_liabilities, net.interbank_liabilities),
            EN, config) for assets in terminal]
        assert result.dropped == 0 and all(ref.converged for ref in references)
        solutions = np.array([ref.solution for ref in references])
        if config is None:
            drawn, bounds, *_ = _certify(ValuationSpec.eisenberg_noe_haircut(1.0).bind(
                net, terminal), None)
            epsilon = np.array([[ref.epsilon] for ref in references])
            rounding = 1e-3 * epsilon  # 1e-13 of the scale
            assert np.all(drawn - solutions <= bounds + rounding)
            assert np.all(solutions - drawn <= epsilon + rounding)
            assert np.array_equal(result.mean, drawn.sum(axis=0) / samples)
            continue
        mean = solutions.sum(axis=0) / samples
        if net._sparse:
            std_error = (solutions.std(axis=0, ddof=1) / np.sqrt(samples) if samples > 1
                         else np.zeros(net.n))
            assert np.array_equal(result.mean, mean)
            assert np.array_equal(result.std_error, std_error)
        else:
            epsilon = max(ref.epsilon for ref in references)
            assert np.max(np.abs(result.mean - mean)) <= epsilon


@given(balance_sheets(), st.integers(0, 2**32 - 1))
def test_the_dense_constructor_is_the_edge_builder(sheets, seed):
    # the matrix is read into its nonzero entries and built as a file's edges
    # are, here given in a shuffled order: the same lender-major edges,
    # totals and book equities bit for bit, and no dense copy; the view,
    # built on first read, is the matrix given
    ids, assets, external_liabilities, liabilities = sheets
    net = FinancialNetwork(*sheets)
    order = np.random.default_rng(seed).permutation(np.count_nonzero(liabilities))
    debtors, creditors = (index[order] for index in np.nonzero(liabilities))
    edges, repeated = FinancialNetwork._from_edges(ids, assets, external_liabilities,
                                                   debtors, creditors,
                                                   liabilities[debtors, creditors])
    assert not len(repeated)
    for name in ("debtors", "creditors", "amounts"):
        assert np.array_equal(getattr(net, name), getattr(edges, name))
    for name in ("total_obligations", "total_claims", "book_equity"):
        assert np.array_equal(getattr(net, name)(), getattr(edges, name)())
    assert "interbank_liabilities" not in vars(net)
    assert np.array_equal(net.interbank_liabilities, liabilities)


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


@given(networks() | sparse_networks(), st.integers(1, 4), st.floats(0.0, 1.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_claim_sums_over_the_edges_are_the_dense_product(net, rows, beta, column, seed):
    # under every pair of table keys, the borrower factors a sweep weighs the
    # claims by, summed over each creditor's edges, are the dense product up
    # to the rounding of the summed magnitude; a bank without claims gets 0
    rng = np.random.default_rng(seed)
    liabilities, holds_none = net.interbank_liabilities, net.total_claims() == 0
    for kind in INTERBANK_FAMILIES:
        for external in EXTERNAL_FAMILIES:
            bound, assets = _bind_drawn(net, kind, external, rows, beta, column, rng)
            lower = net.equity_lower_bound()
            equities = rng.uniform(lower - 1.0, bound.book_equity + 1.0, assets.shape)
            weights = bound.borrower_factors(equities)
            sums = net._edge_claim_sums(weights)
            magnitude = np.abs(weights) @ liabilities
            assert np.all(np.abs(sums - weights @ liabilities) <= 4 * ULP * magnitude)
            assert np.all(sums[:, holds_none] == 0.0)


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


@given(st.text('Az09_.:- "\',;\t\n\r\u00e9') | st.text())
def test_labels_are_quoted_as_csv_writer_quotes_them(text):
    # labels that match the plain pattern skip the writer, byte for byte
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow((text, ""))
    assert _quoted(text) == buffer.getvalue()[:-3]


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
                           np.array(delta), effect)
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
    rows = draw(st.integers(0, 9))
    header = draw(st.lists(st.text('ab "%é\n', max_size=4), min_size=1, max_size=4,
                           unique=True))
    columns, cells = [], []
    for _ in header:
        if draw(st.booleans()):  # a float array; index -1 is a null cell
            values = np.array(draw(st.lists(st.floats(), max_size=4)), dtype=float)
            options, least = values.tolist() + [None], -1
        else:
            options = values = draw(st.lists(LABELS, min_size=1, max_size=4))
            least = 0
        index = draw(st.lists(st.integers(least, len(values) - 1), min_size=rows,
                              max_size=rows))
        columns.append((values, np.array(index, dtype=np.intp)))
        cells.append([options[k] for k in index])
    extra = draw(st.dictionaries(st.text(max_size=3).filter(lambda key: key not in
                                                              ("kind", "rows")),
                                 LABELS | st.lists(LABELS, max_size=3), max_size=3))
    kind = draw(st.text(max_size=5))
    return (kind, header, columns, extra), {
        "kind": kind, **extra, "rows": [dict(zip(header, row)) for row in zip(*cells)]}


@given(tables(), st.sampled_from([1, 2, 3, 1024]))
def test_json_output_is_that_of_json_dumps(drawn, block_rows):
    # the cells are encoded column by column, block_rows rows at a time, and
    # spliced into the document; the text must be json.dumps(indent=2) of the
    # same rows, byte for byte, with each NaN or infinity, which JSON does not
    # have, as null; the CSV must be that of one block (at most 9 rows)
    table, document = drawn
    document = json.loads(json.dumps(document), parse_constant=lambda constant: None)
    single = "".join(_render(*table, "csv"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "BLOCK_ROWS", block_rows)
        text, csv_text = ("".join(_render(*table, fmt)) for fmt in ("json", "csv"))
    assert text == json.dumps(document, indent=2) + "\n"
    assert csv_text == single


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
        stack = stack.keep(keep)


def _bound_alone(bound, assets, rows):
    """The spec of ``bound`` bound to the external assets, and any ``(rows, 1)``
    column, of its rows ``rows`` alone."""
    columns = {name: bound.constants[name][rows] for name in ("maturity", "beta")
               if np.ndim(bound.constants[name]) == 2}
    return bound.spec.bind(bound.net, assets[rows], **columns)


@given(networks() | sparse_networks(), st.integers(1, 4), st.floats(0.0, 1.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_a_stack_and_its_kept_rows_map_as_their_bindings(net, rows, beta, column, seed):
    # under every pair of table keys (a rogers_veraart stack lays out the
    # external assets, not the cash), with or without a (rows, 1) column: the
    # solver's stack of a binding, its shared constants tiled, maps as the
    # binding, and a stack kept from it maps its rows as the spec bound to
    # those rows alone, bit for bit, as both take the same shapes
    rng = np.random.default_rng(seed)
    lower = net.equity_lower_bound()
    for kind in INTERBANK_FAMILIES:
        for external in EXTERNAL_FAMILIES:
            bound, assets = _bind_drawn(net, kind, external, rows, beta, column, rng)
            equities = rng.uniform(lower - 1.0, bound.book_equity + 1.0, assets.shape)
            stack = bound.stack(rows)
            assert np.array_equal(stack.equity_map(equities), bound.equity_map(equities))
            kept = np.sort(rng.choice(rows, rng.integers(1, rows + 1), replace=False))
            assert np.array_equal(stack.keep(kept).equity_map(equities[kept]),
                                  _bound_alone(bound, assets, kept).equity_map(equities[kept]))


@given(networks(), st.sampled_from([(kind, external) for kind in INTERBANK_FAMILIES
                                    for external in EXTERNAL_FAMILIES]),
       st.integers(2, 4), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_keep_returns_a_new_stack_and_leaves_its_own(net, kinds, rows, beta, column, seed):
    # keep is pure: after it, the stack it was called on still maps all of its
    # rows bit for bit as before, and the stack it returns maps the kept rows
    rng = np.random.default_rng(seed)
    bound, assets = _bind_drawn(net, *kinds, rows, beta, column, rng)
    lower = net.equity_lower_bound()
    equities = rng.uniform(lower - 1.0, bound.book_equity + 1.0, assets.shape)
    stack = bound.stack(rows)
    before = stack.equity_map(equities)
    rows = np.sort(rng.choice(rows, rng.integers(1, rows), replace=False))
    kept = stack.keep(rows)
    assert np.array_equal(stack.equity_map(equities), before)
    assert np.array_equal(kept.equity_map(equities[rows]),
                          _bound_alone(bound, assets, rows).equity_map(equities[rows]))


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


# every amount, sigma and maturity spread over the decades of the float
# range, subnormals included; 10**-323.5 and below round to 0
WIDE = st.floats(-323.5, 308.0).map(lambda exponent: 10.0 ** exponent)


def _sheet(assets, liabilities, edges) -> tuple:
    """Balance sheets of ``len(assets)`` banks owing ``edges``, (debtor,
    creditor, amount) triples, summed per pair."""
    dense = np.zeros((len(assets),) * 2)
    with np.errstate(over="ignore"):  # a sum that overflows is the constructor's to reject
        for debtor, creditor, amount in edges:
            dense[debtor, creditor] += amount
    return [f"B{k}" for k in range(len(assets))], assets, liabilities, dense


@st.composite
def wide_balance_sheets(draw):
    """``_sheet`` of 2 to 4 banks, every amount 0 or drawn from ``WIDE``."""
    n = draw(st.integers(2, 4))
    amounts = st.lists(st.just(0.0) | WIDE, min_size=n, max_size=n)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                    st.just(0.0) | WIDE), max_size=2 * n))
    return _sheet(draw(amounts), draw(amounts),
                  [(debtor, (debtor + step) % n, amount) for debtor, step, amount in edges])


@settings(max_examples=300)
@given(st.sampled_from([(kind, external) for kind in INTERBANK_FAMILIES
                        for external in EXTERNAL_FAMILIES]),
       wide_balance_sheets(), WIDE | st.lists(WIDE, min_size=4, max_size=4), WIDE,
       st.floats(0.0, 1.0))
@example(("eisenberg_noe", "unit"), _sheet([1.0, 1.0], [0.0, 0.0], [(0, 1, 1e-310)]),
         0.3, 1.0, 1.0)
@example(("exante_en_gbm", "unit"), _sheet([1.0, 1.0], [0.0, 0.0], [(0, 1, 1.0)]),
         1.0, 1e308, 1.0)
@example(("exante_en_gbm", "unit"), _sheet([1.0, 1.0], [0.0, 0.0], [(0, 1, 1.0)]),
         1e-200, 1e-300, 1.0)
@example(("exante_en_gbm", "unit"), _sheet([1e9, 1.0], [0.0, 0.0], [(0, 1, 1e-300)]),
         0.3, 1.0, 1.0)
@example(("exante_en_uniform", "unit"), _sheet([2e-200, 1.0], [0.0, 0.0],
                                               [(0, 1, 1e-200)]), 0.3, 1.0, 0.5)
@example(("exante_en_gbm", "unit"), _sheet([0.0, 0.0], [0.0, 1e152], [(1, 0, 1e-157)]),
         1.0, 1.0, 0.0)  # equity / (2 pbar) overflows where no mass is left: 0 x inf
@example(("exante_en_uniform", "unit"), _sheet([1e155, 1.0], [0.0, 0.0], [(0, 1, 1e150)]),
         0.3, 1.0, 0.5)  # book**2 overflows: inf - inf
def test_admissible_inputs_never_give_nan_factors(kinds, sheets, sigma, maturity, beta):
    # under every pair of table keys, a balance sheet and a (sigma, maturity)
    # anywhere in the float range are rejected, by the network, the spec or
    # bind, or every bound factor is finite and in [0, 1] on a stack from one
    # below the lattice to one above it, its branch points included
    kind, external = kinds
    parameters = {"alpha": beta, "beta": beta, "recovery": beta, "maturity": maturity,
                  "sigma": sigma if np.ndim(sigma) == 0 else tuple(sigma[:len(sheets[0])])}
    params = INTERBANK_FAMILIES[kind].params + EXTERNAL_FAMILIES[external].params
    try:
        net = FinancialNetwork(*sheets)
        bound = ValuationSpec(kind, external, **{name: parameters[name]
                                                 for name in params}).bind(net)
    except (NetworkError, SpecError):
        return
    lower, upper = net.equity_lower_bound() - 1.0, bound.book_equity + 1.0
    share = np.linspace(0.0, 1.0, 17)[:, np.newaxis]
    obligations = net.total_obligations()
    equities = np.vstack([(1.0 - share) * lower + share * upper, np.zeros(net.n),
                          -obligations, net.external_assets,
                          net.external_assets - obligations])
    for side in ("borrower", "lender", "external"):
        # the values are checked, so a product that overflows on its way to
        # a clipped factor, or an inf - inf that a mask drops, may pass
        with np.errstate(over="ignore", invalid="ignore"):
            factors = getattr(bound, f"{side}_factors")(equities)
        assert factors is None or np.all((factors >= 0.0) & (factors <= 1.0)), side


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


@given(acyclic_networks() | sparse_networks(acyclic=True), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
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


@given(networks(max_banks=10) | sparse_networks(), st.integers(-3, 20),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
# the first sweep of this network sums a bank's claims in another order than
# its book equity and rises by an ulp, more than 1e-12 once sheets top 4000
@example(random_network(np.random.default_rng(8)), 20, 0.5, 0)
def test_a_power_of_two_unit_changes_nothing_but_the_unit(net, k, beta, seed):
    # every amount times 2**k is an exact change of unit: each map value, so
    # each iterate, and the default tolerance scale by 2**k bit for bit, and
    # the greatest and the least solve under every pair of table keys agree
    # with the unscaled ones in all but the unit, warnings included
    unit = 2.0 ** k
    scaled = rescaled(net, unit)
    rng = np.random.default_rng(seed)
    for kind in INTERBANK_FAMILIES:
        for external in EXTERNAL_FAMILIES:
            spec = _drawn_spec(net.n, kind, external, beta, rng)
            for start in ("face_values", "lower_bounds"):
                plain = solve(net, spec, start=start)
                other = solve(scaled, spec, start=start)
                assert other.epsilon == unit * plain.epsilon
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
