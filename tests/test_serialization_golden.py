"""Golden bytes of the result writer: every result kind in CSV and JSON.

The expected files under ``golden/`` were written by the row-by-row writer
that the columnar one replaced.  The network's bank ids need CSV quoting
and are not in sorted order; the stress grid has unsorted and duplicate
alphas, a per-bank shock vector and one unconverged point, and the discount
grid one unconverged point.  The network has two claims, so a network
effect sums at most two write-offs and cannot depend on summation order.

That network is acyclic, so every Monte Carlo draw settles at its first step
and none goes on to the default tolerance.  ``mc_certified.{csv,json}`` were
written by ``serialize_results`` from the two-step stop, before its probe ran
in place on the stack: a ring of 40 banks, on the edge form (so no BLAS
product rounds by the stack's row count), whose haircut leaves some draws
uncertified at the probe, to go on to the default tolerance.
"""
from pathlib import Path

import numpy as np
import pytest

from neva import files
from neva import (FinancialNetwork, SolveConfig, ValuationSpec, evaluate_curves,
                  greatest_solution, maturity_limit_experiment,
                  merton_vs_network_discount, monte_carlo_global_valuation,
                  serialize_results, stress_test)

GOLDEN = Path(__file__).parent / "golden"


def golden_network() -> FinancialNetwork:
    liabilities = np.zeros((4, 4))
    liabilities[1, 3] = 1.5  # z owes m
    liabilities[3, 0] = 1.25  # m owes q"x
    return FinancialNetwork(['q"x', "z", "a,b", "m"], [2.0, 2.0, 1.5, 1.5],
                            [1.5, 0.25, 1.0, 0.5], liabilities)


def certified_ring() -> FinancialNetwork:
    """A ring of 40 banks, bank k owing bank k + 1 three: one edge a bank,
    so claims are summed over the edges."""
    n = 40
    liabilities = np.zeros((n, n))
    liabilities[np.arange(n), (np.arange(n) + 1) % n] = 3.0
    assets = 1.0 + (np.arange(n) * 7 % n) / n
    return FinancialNetwork([f"b{k}" for k in range(n)], assets, 0.9 * assets, liabilities)


def golden_result(kind: str, net: FinancialNetwork):
    if kind == "solve":
        return greatest_solution(net.apply_shock(0.5), ValuationSpec.eisenberg_noe())
    if kind == "stress":
        # two sweeps settle every point but alpha 0.5, which needs three
        grid = [0.5, 0.2, np.array([0.0, 0.0, 0.75, 0.0]), 0.0, 0.2]
        return stress_test(net, ValuationSpec.eisenberg_noe(), grid,
                           SolveConfig(max_iterations=2))
    if kind == "limit":
        return maturity_limit_experiment(net, 0.3, [1.0, 0.1, 0.01])
    if kind == "mc_global":
        return monte_carlo_global_valuation(net, 0.3, 1.0, 0.5, 16, seed=5)
    if kind == "mc_certified":
        return monte_carlo_global_valuation(net, 0.4, 1.0, 0.5, 32, seed=5)
    if kind == "discount":
        # alpha 0 settles in two sweeps, alpha 0.4 needs three
        return merton_vs_network_discount(net, ValuationSpec.exante_en_gbm(0.05, 1.0, 0.5),
                                          [0.4, 0.0], SolveConfig(max_iterations=2))
    return evaluate_curves(  # curve
        [{"family": "eisenberg_noe", "obligations": 2.0},
         {"family": "rogers_veraart", "obligations": 2.0, "beta": 0.5,
          "lender_equity": -1.0}],
        [-3.0, -1.0, -0.25, 0.0, 0.5])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["solve", "stress", "limit", "mc_global",
                                  "mc_certified", "discount", "curve"])
def test_writer_matches_golden_bytes(kind, fmt):
    net = certified_ring() if kind == "mc_certified" else golden_network()
    result = golden_result(kind, net)
    if kind == "mc_certified":  # the probe certifies some draws and sends others on
        assert net._sparse and 0 < result.certified < result.samples - result.dropped
    text = serialize_results(result, fmt, net)
    assert text.encode("utf-8") == (GOLDEN / f"{kind}.{fmt}").read_bytes()


def test_only_a_column_with_empty_cells_is_padded():
    # a float column is copied to append the empty cell's NaN only if an index reaches
    # that cell (-1): the stress table's delta_equity is rendered from its own array,
    # its last value not blanked; the discount table's network columns, at the
    # unconverged point, are padded and left empty there
    net = golden_network()
    _, _, columns, _ = files._stress_table(net, golden_result("stress", net))
    values, index = columns[2]
    rendered = files._rendered(values, index, True)
    assert rendered[0] is values and (index == len(values) - 1).any()
    assert "" not in files._cells(*rendered, slice(None), True)
    _, _, columns, _ = files._discount_table(net, golden_result("discount", net))
    for values, index in columns[4:]:
        rendered = files._rendered(values, index, True)
        assert len(rendered[0]) == len(values) + 1 and np.isnan(rendered[0][-1])
        assert files._cells(*rendered, slice(None), True).count("") == (index < 0).sum() > 0
