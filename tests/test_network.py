import tracemalloc

import numpy as np
import pytest

from neva import FinancialNetwork, NetworkError

from conftest import claim_depth, random_dag_network, random_network


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
