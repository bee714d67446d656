import pickle
import tracemalloc

import numpy as np
import pytest

from neva import (FinancialNetwork, INTERBANK_FAMILIES, NetworkError, Scenario, SolveConfig,
                  SolveReport, ValuationSpec, evaluate_curves, greatest_solution,
                  maturity_limit_experiment, merton_vs_network_discount,
                  monte_carlo_global_valuation, stress_test, uniqueness_check)
from neva.files import SCENARIO_KINDS
from neva.network import Record

from conftest import claim_depth, random_dag_network, random_network, ring_network


def test_book_equity_ring(ring):
    assert np.allclose(ring.book_equity(), [1.0, 1.0, 1.0])


def test_book_equity_cancels_without_interbank():
    net = FinancialNetwork(["X", "Y"], [2.0, 3.0], [2.0, 3.0], np.zeros((2, 2)))
    assert np.all(net.book_equity() == 0.0)


def test_book_equity_closed_chain(closed_chain):
    # hand sum: A: 1 + 1.1 - 1.5, B: 1 + 1.2 - 1.1, C: 1 + 1.5 - 1.2
    assert np.allclose(closed_chain.book_equity(), [0.6, 1.1, 1.3])


def test_lower_bound_ring(ring):
    assert np.allclose(ring.equity_lower_bound(), [-9.5, -4.5, -2.5])


def test_lower_bound_without_liabilities():
    net = FinancialNetwork(["X"], [1.0], [0.0], np.zeros((1, 1)))
    assert np.all(net.equity_lower_bound() == 0.0)


def test_lower_bound_open_chain(open_chain):
    assert np.allclose(open_chain.equity_lower_bound(), [0.0, -1.2, -1.2])


def test_total_obligations(ring, closed_chain):
    assert np.allclose(ring.total_obligations(), [0.5, 0.5, 0.5])
    assert np.allclose(closed_chain.total_obligations(), [1.5, 1.1, 1.2])
    empty = FinancialNetwork(["X", "Y"], [1.0, 1.0], [0.0, 0.0], np.zeros((2, 2)))
    assert np.all(empty.total_obligations() == 0.0)


def test_apply_shock_identity_and_full(ring):
    same = ring.apply_shock(0.0)
    assert np.array_equal(same.external_assets, ring.external_assets)
    wiped = ring.apply_shock(1.0)
    assert np.all(wiped.external_assets == 0.0)
    assert np.array_equal(wiped.interbank_liabilities, ring.interbank_liabilities)


def test_apply_shock_uniform_value(ring):
    shocked = ring.apply_shock(0.05)
    assert np.allclose(shocked.external_assets, [9.5, 4.75, 2.85])
    # original untouched
    assert np.allclose(ring.external_assets, [10.0, 5.0, 3.0])


def test_apply_shock_per_bank(ring):
    shocked = ring.apply_shock([0.0, 0.5, 1.0])
    assert np.allclose(shocked.external_assets, [10.0, 2.5, 0.0])


def test_apply_shock_rejects_out_of_range(ring):
    with pytest.raises(NetworkError):
        ring.apply_shock(-0.1)
    with pytest.raises(NetworkError):
        ring.apply_shock([0.0, 1.5, 0.0])


def test_apply_shock_composition_and_monotonicity(ring):
    once = ring.apply_shock(0.3)
    again = once.apply_shock(0.0)
    assert np.array_equal(once.external_assets, again.external_assets)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        assert np.all(ring.apply_shock(b).external_assets
                      <= ring.apply_shock(a).external_assets)


# claim_depth is the depth reference the acyclic termination tests bound
# sweeps with; these pin it on the fixtures


def test_topology_open_chain(open_chain):
    assert claim_depth(open_chain) == 2


def test_topology_closed_chain(closed_chain):
    assert claim_depth(closed_chain) is None


def test_topology_tree(tree):
    assert claim_depth(tree) == 1


def test_topology_single_bank():
    net = FinancialNetwork(["X"], [1.0], [0.0], np.zeros((1, 1)))
    assert claim_depth(net) == 0


def test_transpose_preserves_acyclicity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = random_dag_network(rng)
        assert claim_depth(net) is not None
        flipped = net.transpose()
        assert tuple(flipped.bank_ids) == tuple(net.bank_ids)
        assert claim_depth(flipped) is not None


def test_bounds_identity_on_random_networks():
    # book equity minus lower bound equals external assets plus claim row sums
    rng = np.random.default_rng(3)
    for _ in range(50):
        net = random_network(rng, nonnegative_cashflow=False)
        gap = net.book_equity() - net.equity_lower_bound()
        expected = net.external_assets + net.interbank_liabilities.T.sum(axis=1)
        assert np.allclose(gap, expected, atol=1e-12)


def test_edges_are_the_positive_claims_in_lender_major_order():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_network(rng)
        lenders, borrowers = np.nonzero(net.interbank_liabilities.T > 0)
        for edges in (net, net.apply_shock(0.5)):
            assert np.array_equal(edges.creditors, lenders)
            assert np.array_equal(edges.debtors, borrowers)
            assert np.array_equal(edges.amounts,
                                  net.interbank_liabilities.T[lenders, borrowers])
        flipped = net.transpose()
        assert np.array_equal(flipped.interbank_liabilities, net.interbank_liabilities.T)
        lenders, borrowers = np.nonzero(flipped.interbank_liabilities.T > 0)
        assert np.array_equal(flipped.creditors, lenders)
        assert np.array_equal(flipped.debtors, borrowers)
        assert np.array_equal(flipped.total_obligations(), net.total_claims())
        assert repr(flipped) == f"FinancialNetwork(n={net.n}, edges={len(lenders)})"


def test_claim_sums_over_the_edges_on_each_branch(ring, tree):
    # every bank holds a claim (the ring), some hold none (the tree) or none
    # does: per row the dense product, and exactly 0 for a bank without claims
    rng = np.random.default_rng(9)
    empty = FinancialNetwork(["A", "B"], [1.0, 1.0], [0.0, 0.0], np.zeros((2, 2)))
    for net in (ring, tree, empty):
        for weights in (rng.random(net.n), rng.random((4, net.n))):
            sums = net._edge_claim_sums(weights)
            dense = weights @ net.interbank_liabilities
            assert sums.shape == dense.shape
            assert np.all(np.abs(sums - dense) <= 4 * np.finfo(float).eps * dense)
            assert np.all(sums[..., net.total_claims() == 0] == 0.0)


def test_claim_sums_take_the_edges_up_to_a_mean_degree_of_n_over_40():
    # a 40-bank ring has mean degree 1 = n/40: its sums run over the edges and
    # never build the dense view; one claim more and they are the BLAS product
    n = 40
    ring = np.roll(np.eye(n), 1, axis=1)
    denser = ring.copy()
    denser[0, 2] = 1.0
    weights = np.random.default_rng(4).random((3, n))
    for liabilities, sparse in ((ring, True), (denser, False)):
        net = FinancialNetwork([f"B{k}" for k in range(n)], np.ones(n), np.zeros(n),
                               liabilities)
        sums = net.claim_sums(weights)
        assert ("interbank_liabilities" in vars(net)) is not sparse
        assert np.array_equal(sums, weights @ liabilities)


def test_the_dense_constructor_keeps_no_matrix():
    # a 2000-bank ring is read into its 2000 edges: the 32 MB matrix it is
    # given is not copied, and the dense view is not built
    n = 2000
    ring = np.roll(np.eye(n), 1, axis=1)
    tracemalloc.start()
    try:
        net = FinancialNetwork([f"B{k}" for k in range(n)], np.ones(n), np.zeros(n), ring)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert "interbank_liabilities" not in vars(net)
    assert np.all(net.book_equity() == 1.0)


def test_construction_rejects_bad_data():
    with pytest.raises(NetworkError):
        FinancialNetwork([], [], [], np.zeros((0, 0)))
    with pytest.raises(NetworkError):
        FinancialNetwork(["A", "A"], [1, 1], [0, 0], np.zeros((2, 2)))
    with pytest.raises(NetworkError):
        FinancialNetwork(["A", "B"], [1, -1], [0, 0], np.zeros((2, 2)))
    with pytest.raises(NetworkError):
        FinancialNetwork(["A", "B"], [1, np.inf], [0, 0], np.zeros((2, 2)))
    with pytest.raises(NetworkError):
        FinancialNetwork(["A", "B"], [1, 1], [0, 0], np.eye(2))  # self-loan
    with pytest.raises(NetworkError):
        FinancialNetwork(["A", "B"], [1, 1], [0, 0], -np.ones((2, 2)) + np.eye(2))
    # the first bad entry in row order is named, a bad amount before a self-loan
    with pytest.raises(NetworkError, match=r"^self-loan on the diagonal for bank A$"):
        FinancialNetwork(["A", "B"], [1, 1], [0, 0], [[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(NetworkError, match=r"^interbank_liabilities\[A -> A\] .* \(nan\)$"):
        FinancialNetwork(["A", "B"], [1, 1], [0, 0], [[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(NetworkError):
        FinancialNetwork(["A", "B"], [1, 1], [0, 0], np.zeros((3, 3)))


@pytest.mark.parametrize("make, message", [
    (lambda: FinancialNetwork(["A", "B"], [1.0, 1.0, 1.0], [0, 0], np.zeros((2, 2))),
     r"^external_assets must have shape \(2,\), got \(3,\)$"),
    (lambda: FinancialNetwork(["A", "B"], [1, 1], [[0, 0]], np.zeros((2, 2))),
     r"^external_liabilities must have shape \(2,\), got \(1, 2\)$"),
    (lambda: FinancialNetwork(["A", "B"], [1, 1], [0, 0], np.zeros((2, 2))).shock_vector(
        [0.1, 0.2, 0.3]), r"^shock must be a scalar or have shape \(2,\), got \(3,\)$"),
], ids=["external-assets", "external-liabilities", "shock"])
def test_per_bank_vectors_of_the_wrong_shape_are_rejected(make, message):
    with pytest.raises(NetworkError, match=message):
        make()


@pytest.mark.parametrize("assets, liabilities, owed, bank", [
    ([1.5e308, 0.0, 0.0], [0.0] * 3, {(1, 0): 1e308}, "A"),  # book equity
    ([1.0] * 3, [0.0] * 3, {(1, 0): 1e308, (2, 0): 1e308}, "A"),  # claims
    ([1.0] * 3, [0.0] * 3, {(1, 0): 1e308, (1, 2): 1e308}, "B"),  # obligations
    ([1.0, 1.0, 1e308], [0.0, 0.0, 1e308], {(2, 0): 1e308}, "C"),  # lower bound
])
def test_construction_rejects_sums_that_overflow(assets, liabilities, owed, bank):
    # every amount is finite, but a bank's sum of them is not: the first such
    # bank is named, and no overflow warning escapes
    dense = np.zeros((3, 3))
    for (debtor, creditor), amount in owed.items():
        dense[debtor, creditor] = amount
    with pytest.raises(NetworkError, match=f"^bank {bank}: "):
        FinancialNetwork(["A", "B", "C"], assets, liabilities, dense)
    with pytest.raises(NetworkError, match=f"^bank {bank}: "):
        FinancialNetwork(["A", "B", "C"], assets, liabilities, dense.T).transpose()


def test_arrays_are_read_only(ring):
    with pytest.raises(ValueError):
        ring.external_assets[0] = 5.0
    with pytest.raises(ValueError):
        ring.interbank_liabilities[0, 1] = 5.0
    with pytest.raises(ValueError):
        ring.amounts[0] = 5.0
    with pytest.raises(ValueError):
        ring.transpose().interbank_liabilities[0, 1] = 5.0


def test_index_of(ring):
    assert ring.index_of("B") == 1
    with pytest.raises(NetworkError):
        ring.index_of("Z")


def _one_record_of_each_type() -> dict:
    """A record of each of neva's record types, from small runs on the ring, by type name."""
    ring, en = ring_network(), ValuationSpec.eisenberg_noe()
    gbm = ValuationSpec.exante_en_gbm(0.3, 1.0, 0.5)
    records = [
        ring, INTERBANK_FAMILIES["furfine"], gbm, gbm.bind(ring), SolveConfig(epsilon=1e-9),
        greatest_solution(ring, en), uniqueness_check(ring, en), stress_test(ring, en, [0.1])[0],
        merton_vs_network_discount(ring, gbm, [0.1])[0],
        maturity_limit_experiment(ring, 0.3, [1.0, 0.5]),
        monte_carlo_global_valuation(ring, 0.2, 1.0, 1.0, 8, seed=1), SCENARIO_KINDS["stress"],
        Scenario("solve", en, SolveConfig(), {}),
        evaluate_curves([{"family": "eisenberg_noe", "obligations": 2.0}], [-1.0, 1.0])]
    return {type(record).__name__: record for record in records}


RECORD_TYPES = ("FinancialNetwork", "Family", "ValuationSpec", "BoundValuation", "SolveConfig",
                "SolveReport", "UniquenessReport", "StressResult", "DiscountComparison",
                "LimitSeries", "MonteCarloResult", "ScenarioKind", "Scenario", "CurveTable")
# compared and hashed by value; the rest by identity (they hold arrays)
VALUE_TYPES = ("Family", "ValuationSpec", "SolveConfig", "ScenarioKind", "Scenario", "CurveTable")


def test_every_record_type_is_listed():
    assert sorted(kind.__name__ for kind in Record.__subclasses__()) == sorted(RECORD_TYPES)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_frozen_built_by_position_or_keyword_and_compared_as_declared(name):
    record = _one_record_of_each_type()[name]
    kind = type(record)
    arguments = {field: getattr(record, field) for field in kind.__annotations__}
    if kind is FinancialNetwork:  # built from the dense matrix, not its edges
        arguments = {"bank_ids": record.bank_ids, "external_assets": record.external_assets,
                     "external_liabilities": record.external_liabilities,
                     "interbank_liabilities": record.interbank_liabilities}
    by_name, by_position = kind(**arguments), kind(*arguments.values())
    for field in (*kind.__annotations__, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(by_name) == repr(by_position) == repr(record)
    with pytest.raises(TypeError):
        kind(**{**arguments, "no_such_field": None})
    required = [field for field in arguments if field not in vars(kind)]  # no default
    if required:  # SolveConfig has a default for every field
        with pytest.raises(TypeError):
            kind(**{field: value for field, value in arguments.items() if field != required[0]})
    if name not in VALUE_TYPES:
        assert record == record and (by_name == record) is False and by_name != record
        assert hash(by_name) != hash(record)
    elif name in ("ScenarioKind", "Scenario"):  # a dict field: equal, but unhashable
        assert by_name == by_position == record
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert by_name == by_position == record and hash(by_name) == hash(record)


def test_records_print_compare_and_check_as_frozen_dataclasses_did():
    spec = ValuationSpec.exante_en_gbm(0.3, 1.0, 0.5)
    report = SolveReport(np.array([1.5]), 3, True, 0.0, "greatest", 1e-10)
    net = FinancialNetwork(["a", "b"], [1.0, 2.0], [0.5, 0.5], [[0.0, 1.0], [0.5, 0.0]])
    text = ("ValuationSpec(interbank_kind='exante_en_gbm', external_kind='unit', alpha=None, "
            "beta=0.5, recovery=None, sigma=0.3, maturity=1.0)")
    assert repr(spec) == text
    assert repr(SolveConfig()) == "SolveConfig(epsilon=None, max_iterations=100000)"
    assert repr(report) == ("SolveReport(solution=array([1.5]), iterations=3, converged=True, "
                            "residual=0.0, kind='greatest', epsilon=1e-10, warnings=())")
    # the binding's constants and factors stay out of its repr
    assert repr(spec.bind(net)) == f"BoundValuation(spec={text}, net=FinancialNetwork(n=2, edges=2))"
    twin = ValuationSpec(interbank_kind="exante_en_gbm", sigma=0.3, maturity=1.0, beta=0.5)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != ValuationSpec.exante_en_gbm(0.3, 1.0, 0.6)
    assert SolveConfig() == SolveConfig(None, 100_000)
    assert hash(SolveConfig()) == hash(SolveConfig(None, 100_000))
    with pytest.raises(TypeError, match=r"SolveConfig\(\) takes 2 arguments, got 3"):
        SolveConfig(None, 100_000, 1)
    # against another type a value record is unequal, and comparing does not raise
    assert (spec == "exante_en_gbm") is False and SolveConfig() != 0
    assert SolveConfig(1e-9) != SolveConfig(1e-8)
    # equal arrays, but reports compare by identity: no elementwise truth value
    same = SolveReport(np.array([1.5]), 3, True, 0.0, "greatest", 1e-10)
    assert (report == same) is False and report != same
    with pytest.raises(ValueError, match="max_iterations"):
        SolveConfig(None, 0)  # __post_init__ checks arguments given by position too


def test_networks_specs_and_reports_survive_a_pickle_round_trip():
    net = random_network(np.random.default_rng(11), max_banks=12)
    spec = ValuationSpec.exante_en_gbm(tuple(np.linspace(0.1, 0.5, net.n)), 1.0, 0.5)
    report = greatest_solution(net, spec)
    copies = pickle.loads(pickle.dumps((net, spec, report)))
    assert copies[1] == spec and copies[1] is not spec
    assert greatest_solution(*copies[:2]).solution.tobytes() == report.solution.tobytes()
    assert copies[2].solution.tobytes() == report.solution.tobytes()
    assert copies[2].iterations == report.iterations
    # pickle before protocol 5 (the default to 3.13) copies arrays out writeable
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(net, protocol))
        assert not any(value.flags.writeable for value in vars(copy).values()
                       if isinstance(value, np.ndarray))
        with pytest.raises(AttributeError):
            copy.bank_ids = ()
