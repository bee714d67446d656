import importlib
import importlib.util
import json
import os
import platform
import re
import runpy
import stat
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import neva
from neva import (FileFormatError, FinancialNetwork, MonteCarloResult, SolveConfig,
                  ValuationSpec, dump_network, evaluate_curves, greatest_solution,
                  load_network, load_scenario, render_results, serialize_results,
                  stress_test, write_output)
from neva import cli, files
from neva.cli import build_parser, run_command
from neva.files import network_to_dict
from neva.solver import _solve
from neva.valuation import INTERBANK_FAMILIES

from conftest import closed_chain_network, random_network, rescaled, ring_network

RING_FILE = {
    "banks": [
        {"id": "A", "external_assets": 10.0, "external_liabilities": 9.0},
        {"id": "B", "external_assets": 5.0, "external_liabilities": 4.0},
        {"id": "C", "external_assets": 3.0, "external_liabilities": 2.0},
    ],
    "liabilities": [
        {"debtor": "B", "creditor": "A", "amount": 0.5},
        {"debtor": "C", "creditor": "B", "amount": 0.5},
        {"debtor": "A", "creditor": "C", "amount": 0.5},
    ],
}

OPEN_CHAIN_FILE = {
    "banks": [
        {"id": "A", "external_assets": 1.0, "external_liabilities": 0.0},
        {"id": "B", "external_assets": 1.0, "external_liabilities": 0.0},
        {"id": "C", "external_assets": 1.0, "external_liabilities": 0.0},
    ],
    "liabilities": [
        {"debtor": "B", "creditor": "A", "amount": 1.2},
        {"debtor": "C", "creditor": "B", "amount": 1.2},
    ],
}

EN_SOLVE_SCENARIO = {
    "valuation": {"external": {"kind": "unit"}, "interbank": {"kind": "eisenberg_noe"}},
    "scenario": {"kind": "solve"},
}


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


# -------------------------------------------------------------- network files

def test_load_network_ring(tmp_path):
    net = load_network(write_json(tmp_path / "ring.json", RING_FILE))
    assert net.bank_ids == ("A", "B", "C")
    assert np.allclose(net.book_equity(), [1.0, 1.0, 1.0])


def test_load_network_empty_liabilities(tmp_path):
    payload = {"banks": RING_FILE["banks"], "liabilities": []}
    net = load_network(write_json(tmp_path / "n.json", payload))
    assert np.all(net.interbank_liabilities == 0.0)


def test_load_network_rejects_negative_amount(tmp_path):
    payload = json.loads(json.dumps(RING_FILE))
    payload["liabilities"][1]["amount"] = -0.5
    with pytest.raises(FileFormatError) as err:
        load_network(write_json(tmp_path / "n.json", payload))
    assert "'C' -> 'B'" in str(err.value)


def test_load_network_rejects_unknown_bank(tmp_path):
    payload = json.loads(json.dumps(RING_FILE))
    payload["liabilities"][0]["debtor"] = "Z"
    with pytest.raises(FileFormatError) as err:
        load_network(write_json(tmp_path / "n.json", payload))
    assert "'Z'" in str(err.value)


def test_load_network_rejects_self_loan_and_duplicates(tmp_path):
    payload = json.loads(json.dumps(RING_FILE))
    payload["liabilities"][0]["creditor"] = "B"
    with pytest.raises(FileFormatError):
        load_network(write_json(tmp_path / "n.json", payload))
    payload = json.loads(json.dumps(RING_FILE))
    payload["banks"][1]["id"] = "A"
    with pytest.raises(FileFormatError):
        load_network(write_json(tmp_path / "n.json", payload))


def test_load_network_sums_duplicate_edges_with_warning(tmp_path, caplog):
    payload = json.loads(json.dumps(RING_FILE))
    payload["liabilities"].append({"debtor": "B", "creditor": "A", "amount": 0.25})
    with caplog.at_level("WARNING", logger="neva"):
        net = load_network(write_json(tmp_path / "n.json", payload))
    assert net.interbank_liabilities[1, 0] == pytest.approx(0.75)
    assert any("duplicate edge" in rec.message for rec in caplog.records)


def test_duplicate_edge_warnings_name_each_repeat_in_file_order(tmp_path, caplog):
    # B -> A repeats twice and C -> B once; a warning per repeat, in the file's
    # order (not the pairs' sorted order), each with the path; the first
    # occurrence of a pair is no repeat
    payload = json.loads(json.dumps(RING_FILE))
    payload["liabilities"][1:1] = [{"debtor": "B", "creditor": "A", "amount": 0.25}]
    payload["liabilities"] += [{"debtor": "C", "creditor": "B", "amount": 0.125},
                               {"debtor": "B", "creditor": "A", "amount": 1.0}]
    path = write_json(tmp_path / "n.json", payload)
    with caplog.at_level("WARNING", logger="neva"):
        net = load_network(path)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"{path}: duplicate edge {debtor} -> {creditor}; amounts summed"
        for debtor, creditor in (("B", "A"), ("C", "B"), ("B", "A"))]
    assert net.interbank_liabilities[1, 0] == 1.75
    assert net.interbank_liabilities[2, 1] == 0.625
    caplog.clear()
    with caplog.at_level("DEBUG", logger="neva"):
        dense = FinancialNetwork(net.bank_ids, net.external_assets,
                                 net.external_liabilities, net.interbank_liabilities)
        dense.transpose()
        net.transpose()
    assert not caplog.records


def test_load_network_parse_error_has_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"banks": [,]}', encoding="utf-8")
    with pytest.raises(FileFormatError) as err:
        load_network(str(path))
    assert "line" in str(err.value)


def test_load_network_missing_field_context(tmp_path):
    payload = {"banks": [{"id": "A", "external_assets": 1.0}]}
    with pytest.raises(FileFormatError) as err:
        load_network(write_json(tmp_path / "n.json", payload))
    assert "banks[0]" in str(err.value)


def test_network_round_trip(tmp_path):
    original = ring_network()
    path = tmp_path / "dump.json"
    dump_network(original, str(path))
    loaded = load_network(str(path))
    assert loaded.bank_ids == original.bank_ids
    assert np.array_equal(loaded.external_assets, original.external_assets)
    assert np.array_equal(loaded.external_liabilities, original.external_liabilities)
    assert np.array_equal(loaded.interbank_liabilities, original.interbank_liabilities)


MISSING = object()


def faulty_ring(*settings):
    """RING_FILE with each ``(path, value)`` setting applied; ``MISSING``
    deletes the field."""
    payload = json.loads(json.dumps(RING_FILE))
    for path, value in settings:
        *parents, key = path
        owner = payload
        for step in parents:
            owner = owner[step]
        if value is MISSING:
            del owner[key]
        else:
            owner[key] = value
    return payload


@pytest.mark.parametrize("settings, field", [
    ([(("liabilities", 1, "amount"), MISSING)], "liabilities[1]: missing field 'amount'"),
    ([(("liabilities", 2), "edge")], "liabilities[2]: missing field 'debtor'"),
    ([(("liabilities", 0, "amount"), "0.5")], "liabilities[0].amount: expected a number"),
    ([(("liabilities", 0, "amount"), True)], "liabilities[0].amount: expected a number"),
    ([(("liabilities", 0, "amount"), None)], "liabilities[0].amount: expected a number"),
    ([(("liabilities", 0, "amount"), float("nan"))],
     "liabilities[0]: edge 'B' -> 'A' has invalid amount nan"),
    ([(("liabilities", 1, "amount"), -0.5)],
     "liabilities[1]: edge 'C' -> 'B' has invalid amount -0.5"),
    ([(("liabilities", 2, "creditor"), "Z")], "liabilities[2]: unknown bank id 'Z'"),
    ([(("liabilities", 0, "creditor"), "B")], "liabilities[0]: self-loan 'B' -> 'B'"),
    ([(("liabilities", 1, "amount"), -1.0), (("liabilities", 2, "debtor"), "Z")],
     "liabilities[1]: edge 'C' -> 'B' has invalid amount -1.0"),
    ([(("liabilities", 0, "debtor"), "Z"), (("liabilities", 2, "amount"), MISSING)],
     "liabilities[0]: unknown bank id 'Z'"),
    ([(("banks", 2, "id"), "A")], "duplicate bank ids ['A']"),
    ([(("banks", 1, "external_liabilities"), MISSING)],
     "banks[1]: missing field 'external_liabilities'"),
    # rejected since the loader reads columns: the fields and their paths
    ([(("liabilities",), None)], ".liabilities: expected a list, got null"),
    ([(("liabilities",), 3)], ".liabilities: expected a list, got a number"),
    ([(("liabilities",), {"x": 1})], ".liabilities: expected a list, got an object"),
    ([(("banks", 1, "id"), None)], "banks[1].id: expected a string, got null"),
    ([(("banks", 1, "id"), 7)], "banks[1].id: expected a string, got a number"),
    ([(("liabilities", 0, "debtor"), 7)],
     "liabilities[0].debtor: expected a string, got a number"),
    ([(("liabilities", 2, "creditor"), None)],
     "liabilities[2].creditor: expected a string, got null"),
    ([(("banks", 0, "external_assets"), -1)], "banks[0].external_assets: expected"),
    ([(("banks", 2, "external_assets"), float("inf"))],
     "banks[2].external_assets: expected"),
    ([(("banks", 1, "external_liabilities"), float("nan"))],
     "banks[1].external_liabilities: expected"),
    # integer literals beyond the float range
    ([(("liabilities", 1, "amount"), 10**400)],
     "liabilities[1].amount: expected a number, got an integer beyond the float range"),
    ([(("banks", 2, "external_assets"), 10**400)],
     "banks[2].external_assets: expected a number, got an integer beyond the float range"),
    ([(("banks", 0, "external_liabilities"), -10**400)],
     "banks[0].external_liabilities: expected a number, got an integer beyond the "
     "float range"),
    # fields the loader does not read
    ([(("liabilities",), MISSING), (("liabilites",), RING_FILE["liabilities"])],
     ".liabilites: does not apply to a network file"),
    ([(("banks", 1, "equity"), 1.0)], "banks[1].equity: does not apply to a bank"),
    ([(("liabilities", 2, "maturity"), 1.0)],
     "liabilities[2].maturity: does not apply to a liability"),
    ([(("banks",), []), (("liabilities",), [])], "banks list is empty"),
], ids=["missing-amount", "edge-not-an-object", "string-amount", "bool-amount",
        "null-amount", "nan-amount", "negative-amount", "unknown-id", "self-loan",
        "first-of-two-bad-edges", "first-of-bad-id-and-missing-field",
        "duplicate-bank-id", "missing-bank-field", "null-liabilities",
        "number-liabilities", "object-liabilities", "null-bank-id", "number-bank-id",
        "number-debtor", "null-creditor", "negative-external-assets",
        "infinite-external-assets", "nan-external-liabilities", "overflowing-amount",
        "overflowing-external-assets", "overflowing-external-liabilities",
        "misspelt-liabilities", "unread-bank-field", "unread-liability-field",
        "no-banks"])
def test_cli_names_the_first_fault_of_a_network_file(tmp_path, capsys, settings, field):
    network = write_json(tmp_path / "net.json", faulty_ring(*settings))
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out = tmp_path / "out.csv"
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--output", str(out)]) == 2
    err = capsys.readouterr().err
    separator = "" if field.startswith(".") else ": "
    assert f"{network}{separator}{field}" in err
    assert "Traceback" not in err and err.count("\n") == 1  # one error line
    assert not out.exists()


def test_cli_rejects_a_network_whose_sums_overflow(tmp_path, capsys):
    # every amount is finite, A's book equity is not: rejected at load, before
    # any sweep on NaN could write NaN or Infinity into the output
    network = write_json(tmp_path / "net.json", {
        "banks": [{"id": "A", "external_assets": 1.5e308, "external_liabilities": 0.0},
                  {"id": "B", "external_assets": 1.0, "external_liabilities": 0.0}],
        "liabilities": [{"debtor": "B", "creditor": "A", "amount": 1e308}]})
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out = tmp_path / "out.json"
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--format", "json", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    # named like every other fault of a network file: the path first
    assert err.startswith(f"neva: ERROR: {network}: bank A: ") and "overflow" in err
    assert "Traceback" not in err and err.count("\n") == 1  # one error line
    assert not out.exists()


@pytest.mark.parametrize("command, document, message", [
    ("solve", EN_SOLVE_SCENARIO, "1/obligations"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress", "alpha_grid": [0.0, 0.1]}}, "1/obligations"),
    ("solve", {"valuation": {"interbank": {"kind": "exante_en_gbm", "sigma": 0.3,
                                           "maturity": 1.0, "beta": 1.0}},
               "scenario": {"kind": "solve"}}, "0.5/obligations"),
])
def test_cli_names_the_network_file_and_bank_of_constants_beyond_the_float_range(
        tmp_path, capsys, command, document, message):
    # A owes 1e-310, whose reciprocal overflows: exit 2, not a NaN solve
    network = write_json(tmp_path / "net.json", {
        "banks": [{"id": "A", "external_assets": 1.0, "external_liabilities": 0.0},
                  {"id": "B", "external_assets": 1.0, "external_liabilities": 0.0}],
        "liabilities": [{"debtor": "A", "creditor": "B", "amount": 1e-310}]})
    scenario = write_json(tmp_path / "scn.json", document)
    out = tmp_path / "out.csv"
    assert run_command([command, "--network", network, "--scenario", scenario,
                        "--output", str(out)]) == 2
    assert capsys.readouterr().err == (f"neva: ERROR: {network}: banks[0]: {message} "
                                       "leaves the float range (inf)\n")
    assert not out.exists()


def _large_ring_file(path, n=20_000) -> str:
    """A ring of ``n`` banks, each owing the next 0.5, with book equity 1."""
    ids = [f"b{k:05d}" for k in range(n)]
    path.write_text(json.dumps({
        "banks": [{"id": bank, "external_assets": 2.0, "external_liabilities": 1.0}
                  for bank in ids],
        "liabilities": [{"debtor": ids[k], "creditor": ids[(k + 1) % n], "amount": 0.5}
                        for k in range(n)],
    }), encoding="utf-8")
    return str(path)


def test_large_ring_file_loads_without_a_dense_matrix(tmp_path):
    # the dense claim matrix of 20 000 banks would take 3.2 GB
    n = 20_000
    path = _large_ring_file(tmp_path / "ring.json", n)
    tracemalloc.start()
    try:
        net = load_network(str(path))
        assert np.all(net.book_equity() == 1.0)
        # cyclic, in O(edges): every bank owes one bank and is owed by one
        assert np.all(np.bincount(net.debtors, minlength=n) == 1)
        assert np.all(np.bincount(net.creditors, minlength=n) == 1)
        assert len(network_to_dict(net)["liabilities"]) == n
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_large_ring_solves_and_stresses_without_a_dense_matrix(tmp_path):
    # a sweep sums each bank's claims over the edges: O(edges + rows x edges)
    # memory, where the dense claim matrix of 20 000 banks would take 3.2 GB
    path = _large_ring_file(tmp_path / "ring.json")
    alphas = np.linspace(0.0, 1.0, 11)
    tracemalloc.start()
    try:
        net = load_network(path)
        report = greatest_solution(net, ValuationSpec.eisenberg_noe())
        results = stress_test(net, ValuationSpec.eisenberg_noe(), alphas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert "interbank_liabilities" not in vars(net)
    assert report.converged and np.all(report.solution == 1.0)
    # every bank alike: equity 1 - 2 alpha while solvent (alpha <= 0.5), and
    # beyond that no payment at all, so 0.5 - 2 alpha
    for alpha, result in zip(alphas, results):
        assert result.report.converged
        expected = 1.0 - 2.0 * alpha - (0.5 if alpha > 0.5 else 0.0)
        assert np.allclose(result.report.solution, expected, rtol=0.0, atol=1e-9)
    # its 220 000 rows are written a block at a time: the whole text, 8.6 MB
    # of CSV or 28 MB of JSON, and a string per cell are never held at once
    for fmt in ("csv", "json"):
        out = tmp_path / f"stress.{fmt}"
        tracemalloc.start()
        try:
            write_output(render_results(results, fmt, net), str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, fmt
        text = out.read_text(encoding="utf-8")
        rows = text.count("\n") - 1 if fmt == "csv" else text.count('"bank_id": ')
        assert rows == 11 * 20_000


def test_duplicate_ids_of_a_large_file_are_named_in_one_pass(tmp_path):
    # a count per id by a scan of the id list is quadratic: about a minute here
    n = 40_000
    ids = [f"b{k:05d}" for k in range(n)]
    ids[-2], ids[-1] = ids[7], ids[3]
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"banks": [
        {"id": bank, "external_assets": 2.0, "external_liabilities": 1.0} for bank in ids]}),
        encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(FileFormatError, match=r": duplicate bank ids \['b00003', 'b00007'\]$"):
        load_network(str(path))
    assert time.perf_counter() - start < 5.0


# ------------------------------------------------------------- scenario files

def test_load_scenario_solve(tmp_path):
    scenario = load_scenario(write_json(tmp_path / "s.json", EN_SOLVE_SCENARIO))
    assert scenario.kind == "solve"
    assert scenario.valuation.interbank_kind == "eisenberg_noe"
    assert scenario.params == {"start": "face_values"}
    least = load_scenario(write_json(tmp_path / "least.json", {
        **EN_SOLVE_SCENARIO, "solver": {"epsilon": 1e-12, "start": "lower_bounds"}}))
    assert least.params == {"start": "lower_bounds"}
    assert least.solver == SolveConfig(epsilon=1e-12)


def test_load_scenario_full_blocks(tmp_path):
    payload = {
        "valuation": {
            "external": {"kind": "rogers_veraart", "alpha": 0.5},
            "interbank": {"kind": "rogers_veraart", "beta": 0.5},
        },
        "solver": {"epsilon": 1e-12, "max_iterations": 500},
        "scenario": {"kind": "stress", "alpha_grid": [0.0, 0.5, 1.0]},
    }
    scenario = load_scenario(write_json(tmp_path / "s.json", payload))
    assert scenario.valuation.alpha == 0.5
    assert scenario.solver.epsilon == 1e-12
    assert scenario.params["alpha_grid"] == [0.0, 0.5, 1.0]


def test_load_scenario_errors(tmp_path):
    cases = [
        {"scenario": {"kind": "unknown"}},
        {"scenario": {"kind": "solve"}},  # missing valuation
        {"valuation": {"interbank": {"kind": "eisenberg_noe"}},
         "scenario": {"kind": "stress", "alpha_grid": [0.0, 2.0]}},
        {"valuation": {"interbank": {"kind": "furfine"}},  # missing recovery
         "scenario": {"kind": "solve"}},
        {"scenario": {"kind": "curve", "equity_grid": [0.0],
                      "families": [{"family": "martian"}]}},
        {"valuation": {"interbank": {"kind": "eisenberg_noe"}},
         "solver": {"epsilon": -1.0}, "scenario": {"kind": "solve"}},
    ]
    for k, payload in enumerate(cases):
        with pytest.raises(FileFormatError):
            load_scenario(write_json(tmp_path / f"bad{k}.json", payload))


def test_load_scenario_grid_object(tmp_path):
    payload = {"scenario": {"kind": "curve",
                            "equity_grid": {"min": -1.0, "max": 1.0, "points": 5},
                            "families": [{"family": "furfine", "recovery": 1.0}]}}
    scenario = load_scenario(write_json(tmp_path / "s.json", payload))
    assert scenario.params["equity_grid"] == [-1.0, -0.5, 0.0, 0.5, 1.0]


# --------------------------------------------------------------- serialization

def test_solve_serialization_round_trip(open_chain):
    report = neva.greatest_solution(open_chain, ValuationSpec.eisenberg_noe())
    csv_text = serialize_results(report, "csv", open_chain)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "bank_id,book_equity,equity,defaulted,iterations"
    first = lines[1].split(",")
    assert first[0] == "A" and first[3] == "false"
    assert float(first[2]) == report.solution[0]  # 17 digits round-trip exactly

    payload = json.loads(serialize_results(report, "json", open_chain))
    assert payload["kind"] == "solve" and payload["converged"] is True
    equities = [row["equity"] for row in payload["rows"]]
    assert equities == [float(v) for v in report.solution]
    assert [row["defaulted"] for row in payload["rows"]] == [False, False, True]


def test_stress_rows_sorted(ring):
    results = neva.stress_test(ring, ValuationSpec.eisenberg_noe(), [0.5, 0.0])
    csv_text = serialize_results(results, "csv", ring)
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    keys = [(float(r[0]), r[1]) for r in rows]
    assert keys == sorted(keys)


def test_limit_rows_descending_parameter(open_chain):
    series = neva.maturity_limit_experiment(open_chain, 1.0, [1.0, 0.1, 0.01])
    csv_text = serialize_results(series, "csv", open_chain)
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    parameters = [float(r[0]) for r in rows]
    assert parameters == sorted(parameters, reverse=True)
    payload = json.loads(serialize_results(series, "json", open_chain))
    assert payload["parameter_name"] == "maturity"


def test_serialize_rejects_unknown(ring):
    with pytest.raises(FileFormatError):
        serialize_results(object(), "csv", ring)
    with pytest.raises(FileFormatError):
        serialize_results([], "csv", ring)
    report = neva.greatest_solution(ring, ValuationSpec.eisenberg_noe())
    with pytest.raises(FileFormatError):
        serialize_results(report, "xml", ring)


NETWORK_RESULTS = {
    "SolveReport": lambda net: neva.greatest_solution(net, ValuationSpec.eisenberg_noe()),
    "StressResult": lambda net: stress_test(net, ValuationSpec.eisenberg_noe(), [0.1]),
    "LimitSeries": lambda net: neva.debtrank_limit_experiment(net, [1.0, 0.5]),
    "MonteCarloResult":
        lambda net: neva.monte_carlo_global_valuation(net, 0.2, 1.0, 1.0, samples=10),
    "DiscountComparison": lambda net: neva.merton_vs_network_discount(
        net, ValuationSpec.exante_en_gbm(0.3, 1.0), [0.1]),
}


@pytest.mark.parametrize("kind", NETWORK_RESULTS)
def test_serialize_without_the_network_names_the_result_type(ring, kind):
    # every table but the curve table (whose CLI run has no network) reads the
    # bank ids: an AttributeError on None before
    result = NETWORK_RESULTS[kind](ring)
    for fmt in ("csv", "json"):
        with pytest.raises(FileFormatError,
                           match=f"^cannot serialize {kind} without its network$"):
            serialize_results(result, fmt)


# ------------------------------------------------------------------------ CLI

def test_cli_solve_open_chain(tmp_path):
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out = tmp_path / "out.json"
    status = run_command(["solve", "--network", network, "--scenario", scenario,
                          "--output", str(out), "--format", "json"])
    assert status == 0
    payload = json.loads(out.read_text())
    equities = [row["equity"] for row in payload["rows"]]
    assert equities == pytest.approx([2.2, 0.8, -0.2])
    assert [row["defaulted"] for row in payload["rows"]] == [False, False, True]


def test_cli_solve_to_stdout(tmp_path, capsys):
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    status = run_command(["solve", "--network", network, "--scenario", scenario])
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out.startswith("bank_id,book_equity,equity,defaulted,iterations")


def test_cli_solve_of_a_rescaled_network_warns_of_nothing(tmp_path):
    # the same network in a unit 4096 times smaller, its sheets above 4000:
    # the equities scale exactly, and a sweep that rises by an ulp is rounding
    net = random_network(np.random.default_rng(8))
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    payloads = []
    for unit in (1.0, 4096.0):
        dump_network(rescaled(net, unit), tmp_path / "net.json")
        out = tmp_path / "out.json"
        assert run_command(["solve", "--network", str(tmp_path / "net.json"), "--scenario",
                            scenario, "--output", str(out), "--format", "json"]) == 0
        payloads.append(json.loads(out.read_text()))
    plain, scaled = payloads
    assert scaled["warnings"] == plain["warnings"] == []
    assert ([4096.0 * row["equity"] for row in plain["rows"]]
            == [row["equity"] for row in scaled["rows"]])


def test_cli_curve_families(tmp_path):
    scenario = write_json(tmp_path / "curve.json", {
        "scenario": {
            "kind": "curve",
            "equity_grid": {"min": -3.0, "max": 3.0, "points": 121},
            "families": [
                {"family": "eisenberg_noe", "obligations": 2.0},
                {"family": "eisenberg_noe_haircut", "obligations": 2.0, "beta": 0.5},
                {"family": "furfine", "recovery": 1.0},
                {"family": "linear_debtrank", "book_equity": 2.5},
                {"family": "exante_en_gbm", "external_assets": 1.0,
                 "obligations": 2.0, "beta": 1.0, "sigma": 1.0, "maturity": 1.0},
                {"family": "rogers_veraart", "obligations": 2.0, "beta": 0.5,
                 "lender_equity": -1.0},
                {"family": "exante_en_uniform", "book_equity": 2.5,
                 "obligations": 2.0, "beta": 0.5},
            ],
        },
    })
    out = tmp_path / "curves.csv"
    status = run_command(["curve", "--scenario", scenario, "--output", str(out)])
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,equity,value"
    by_family = {}
    for line in lines[1:]:
        family, equity, value = line.split(",")
        by_family.setdefault(family, []).append(float(value))
    assert set(by_family) == set(INTERBANK_FAMILIES)
    for family, values in by_family.items():
        assert len(values) == 121
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert all(v == 1.0 for v in by_family["furfine"])  # unit recovery curve
    # a defaulted lender (equity -1) keeps half of the pro-rata curve
    assert by_family["rogers_veraart"] == [0.5 * v for v in by_family["eisenberg_noe"]]
    # a defaulted borrower pays half of its pro-rata share
    grid = np.linspace(-3.0, 3.0, 121)
    assert by_family["eisenberg_noe_haircut"] == [
        0.5 * v if equity < 0 else v
        for equity, v in zip(grid, by_family["eisenberg_noe"])]


def test_cli_curve_accepts_non_positive_book_equity(tmp_path):
    # unlike obligations and external assets, book equity may be negative: such
    # a borrower recovers nothing, so both families value its claims at 0
    scenario = write_json(tmp_path / "curve.json", {"scenario": {
        "kind": "curve", "equity_grid": [-1.0, 0.0, 1.0],
        "families": [{"family": "linear_debtrank", "book_equity": -2.0},
                     {"family": "exante_en_uniform", "book_equity": 0.0,
                      "obligations": 1.0, "beta": 0.5}]}})
    out = tmp_path / "curves.csv"
    assert run_command(["curve", "--scenario", scenario, "--output", str(out)]) == 0
    assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]] == ["0"] * 6


@pytest.mark.parametrize("family", [
    {"family": "furfine", "recovery": 1.5},
    {"family": "rogers_veraart", "obligations": 2.0, "beta": 2},
    {"family": "exante_en_uniform", "book_equity": 2.5, "obligations": 2.0,
     "beta": 2},
], ids=["furfine-recovery", "rogers_veraart-beta", "exante_en_uniform-beta"])
def test_cli_curve_rejects_parameters_a_spec_rejects(tmp_path, capsys, family):
    scenario = write_json(tmp_path / "curve.json", {
        "scenario": {"kind": "curve", "equity_grid": [-1.0, 0.0, 1.0],
                     "families": [family]},
    })
    assert run_command(["curve", "--scenario", scenario]) == 2
    parameter = "recovery" if "recovery" in family else "beta"
    assert f"families[0].{parameter}" in capsys.readouterr().err


@pytest.mark.parametrize("families, message", [
    ([{"family": "furfine", "recovery": 2.0}],
     "families[0].recovery: recovery must lie in [0, 1], got 2.0"),
    ([{"family": "eisenberg_noe", "obligations": 1.0}, {"family": "furfine"}],
     "families[1]: missing field 'recovery'"),
    ([{"family": "merton"}], "families[0]: unknown family 'merton'"),
], ids=["recovery-out-of-range", "recovery-missing", "unknown-family"])
def test_evaluate_curves_checks_entries_as_a_curve_scenario_does(families, message):
    with pytest.raises(FileFormatError) as err:
        evaluate_curves(families, [-1.0, 1.0])
    assert str(err.value) == message


MC_SCENARIO = {"kind": "mc_global", "sigma": 0.5, "tau": 1.0, "samples": 10}
LIMIT_SCENARIO = {"kind": "limit_maturity", "sigma": 0.5, "tau_sequence": [1.0, 0.5]}
GBM_VALUATION = {"kind": "exante_en_gbm", "maturity": 1.0, "beta": 1.0}


@pytest.mark.parametrize("command, document, field", [
    ("mc-global", {"scenario": {**MC_SCENARIO, "samples": 10.7}}, "scenario.samples"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "seed": 3.9}}, "scenario.seed"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "seed": "7"}}, "scenario.seed"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "beta": True}}, "scenario.beta"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "beta": "0.5"}}, "scenario.beta"),
    ("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "beta": True}},
     "scenario.beta"),
    ("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "beta": "0.5"}},
     "scenario.beta"),
    ("solve", {**EN_SOLVE_SCENARIO, "solver": {"max_iterations": 2.9}},
     "solver.max_iterations"),
    ("solve", {**EN_SOLVE_SCENARIO, "solver": 5}, "solver"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress",
                             "alpha_grid": {"min": 0.0, "max": 0.5, "points": 3.7}}},
     "alpha_grid.points"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress", "alpha_grid": ["0.1", True]}},
     "alpha_grid[0]"),
    ("solve", {"valuation": {"interbank": {**GBM_VALUATION, "sigma": "0.3"}},
               "scenario": {"kind": "solve"}}, "interbank.sigma"),
    ("solve", {"valuation": {"interbank": {**GBM_VALUATION, "sigma": [True, True]}},
               "scenario": {"kind": "solve"}}, "interbank.sigma[0]"),
    ("solve", {"valuation": {"interbank": {**GBM_VALUATION, "sigma": ["x", 1]}},
               "scenario": {"kind": "solve"}}, "interbank.sigma[0]"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress",
                             "alpha_grid": {"min": 0.0, "max": 0.5, "points": 1e11}}},
     "scenario.alpha_grid"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress", "alpha_grid": []}}, "scenario.alpha_grid"),
    ("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "tau_sequence": []}},
     "scenario.tau_sequence"),
    ("limit-beta", {"scenario": {"kind": "limit_beta", "beta_sequence": []}},
     "scenario.beta_sequence"),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [], "families": []}},
     "scenario.equity_grid"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "tau": -1}}, "scenario.tau"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "seed": -1}}, "scenario.seed"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "sigma": 0}}, "scenario.sigma"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "beta": 1.5}}, "scenario.beta"),
    ("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "tau_sequence": [1.0, -1.0]}},
     "scenario.tau_sequence[1]"),
    ("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "sigma": -0.5}},
     "scenario.sigma"),
    ("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "beta": 2}}, "scenario.beta"),
    ("solve", {**EN_SOLVE_SCENARIO, "solver": {"epsilon": float("inf")}}, "solver"),
    # integer literals beyond the float range
    ("solve", {**EN_SOLVE_SCENARIO, "solver": {"epsilon": 10**400}}, "solver.epsilon"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "sigma": 10**400}}, "scenario.sigma"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress", "alpha_grid": [0.0, 10**400]}},
     "scenario.alpha_grid[1]"),
    # fields no reader reads (misspelt or misplaced) are rejected, not ignored
    ("mc-global", {"scenario": {**MC_SCENARIO, "betta": 0.2}}, "scenario.betta"),
    ("mc-global", {"scenario": {**MC_SCENARIO, "sed": 7}}, "scenario.sed"),
    ("mc-global", {"scenario": MC_SCENARIO, "solver": {"max_iter": 1}}, "solver.max_iter"),
    ("mc-global", {"scenario": MC_SCENARIO, "valuation": EN_SOLVE_SCENARIO["valuation"]},
     ".valuation"),
    ("solve", {**EN_SOLVE_SCENARIO, "solvr": {"epsilon": 1e-12}}, ".solvr"),
    ("solve", {"valuation": {"interbank": {"kind": "eisenberg_noe"},
                             "extrenal": {"kind": "rogers_veraart", "alpha": 0.1}},
               "scenario": {"kind": "solve"}}, "valuation.extrenal"),
    ("solve", {"valuation": {"interbank": {"kind": "eisenberg_noe", "recovry": 0.1}},
               "scenario": {"kind": "solve"}}, "valuation.interbank.recovry"),
    ("solve", {**EN_SOLVE_SCENARIO, "solver": {"start": "middle"}}, "solver.start"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress", "alpha_grid": [0.0], "alpha": 0.1}},
     "scenario.alpha"),
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress", "alpha_grid": {
                    "min": 0.0, "max": 0.5, "points": 3, "step": 0.25}}},
     "scenario.alpha_grid.step"),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "furfine", "recovery": 1.0, "obligations": 2.0}]}},
     "families[0].obligations"),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "eisenberg_noe", "obligations": 2.0, "lender_equity": 1.0}]}},
     "families[0].lender_equity"),
    # non-finite curve numbers
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [
        float("-inf"), -1.0, 0.0, float("nan")],
        "families": [{"family": "eisenberg_noe", "obligations": 0}]}},
     "scenario.equity_grid[0]"),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0, float("nan")],
                            "families": [{"family": "eisenberg_noe", "obligations": 1}]}},
     "scenario.equity_grid[1]"),
    ("curve", {"scenario": {"kind": "curve",
                            "equity_grid": {"min": float("-inf"), "max": 1.0, "points": 3},
                            "families": [{"family": "eisenberg_noe", "obligations": 1}]}},
     "scenario.equity_grid.min"),
    ("curve", {"scenario": {"kind": "curve",
                            "equity_grid": {"min": -1e308, "max": 1e308, "points": 3},
                            "families": [{"family": "eisenberg_noe", "obligations": 1}]}},
     "scenario.equity_grid"),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "eisenberg_noe", "obligations": float("inf")}]}},
     "families[0].obligations"),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "rogers_veraart", "obligations": 1.0, "beta": 0.5,
         "lender_equity": float("nan")}]}},
     "families[0].lender_equity"),
    # a curve solves nothing, so it reads no solver block
    ("curve", {"solver": {"epsilon": 1e-3},
               "scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
                   {"family": "furfine", "recovery": 1.0}]}},
     ".solver"),
    # a null block is not an absent one
    pytest.param("solve", {**EN_SOLVE_SCENARIO, "solver": None}, "solver",
                 id="solve-null-solver"),
    pytest.param("mc-global", {"scenario": MC_SCENARIO, "solver": None}, "solver",
                 id="mc-global-null-solver"),
    # curve amounts are nonnegative, as in a network file; book equity may be negative
    pytest.param("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "eisenberg_noe", "obligations": -1}]}},
        "families[0].obligations", id="curve-negative-obligations"),
    pytest.param("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "exante_en_gbm", "external_assets": 1.0, "sigma": 0.3, "maturity": 1.0,
         "obligations": -1, "beta": 1.0}]}},
        "families[0].obligations", id="curve-gbm-negative-obligations"),
    pytest.param("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "exante_en_gbm", "external_assets": -0.5, "sigma": 0.3, "maturity": 1.0,
         "obligations": 1.0, "beta": 1.0}]}},
        "families[0].external_assets", id="curve-gbm-negative-external-assets"),
    # sigma and maturity each admissible, but 0.5 * sigma**2 * maturity overflows
    pytest.param("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "sigma": 1e200}},
                 "scenario.sigma", id="limit-maturity-variance-overflow"),
    pytest.param("mc-global", {"scenario": {**MC_SCENARIO, "sigma": 1e200}},
                 "scenario.sigma", id="mc-global-variance-overflow"),
    pytest.param("solve", {"valuation": {"interbank": {**GBM_VALUATION, "sigma": 1e200}},
                           "scenario": {"kind": "solve"}},
                 "valuation", id="solve-gbm-variance-overflow"),
    pytest.param("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "exante_en_gbm", "external_assets": 1.0, "sigma": 1e200, "maturity": 1.0,
         "obligations": 1.0, "beta": 1.0}]}},
        "families[0].sigma", id="curve-gbm-variance-overflow"),
    # each admissible alone; the spread sqrt(2 tau) sigma underflows, at the
    # shortest maturity of a sequence too
    pytest.param("limit-maturity", {"scenario": {**LIMIT_SCENARIO, "sigma": 1e-200,
                                                 "tau_sequence": [1.0, 1e-300]}},
                 "scenario.sigma", id="limit-maturity-spread-underflow"),
    pytest.param("mc-global", {"scenario": {**MC_SCENARIO, "sigma": 1e-200, "tau": 1e-300}},
                 "scenario.sigma", id="mc-global-spread-underflow"),
    pytest.param("solve", {"valuation": {"interbank": {**GBM_VALUATION, "sigma": 1e-200,
                                                       "maturity": 1e-300}},
                           "scenario": {"kind": "solve"}},
                 "valuation", id="solve-gbm-spread-underflow"),
    pytest.param("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "exante_en_gbm", "external_assets": 1.0, "sigma": 1e-200,
         "maturity": 1e-300, "obligations": 1.0, "beta": 1.0}]}},
        "families[0].sigma", id="curve-gbm-spread-underflow"),
    # a curve constant beyond the float range: 1/obligations, Ae/(2 pbar)
    pytest.param("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "eisenberg_noe", "obligations": 1e-310}]}},
        "families[0]", id="curve-en-reciprocal-overflow"),
    pytest.param("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0], "families": [
        {"family": "exante_en_gbm", "external_assets": 1e9, "sigma": 0.3, "maturity": 1.0,
         "obligations": 1e-300, "beta": 1.0}]}},
        "families[0]", id="curve-gbm-tail-overflow"),
    # each rejected at load, before the network is read
    pytest.param("mc-global", {"scenario": {**MC_SCENARIO, "samples": 0}},
                 "scenario.samples", id="mc-global-no-samples"),
    pytest.param("limit-maturity",
                 {"scenario": {**LIMIT_SCENARIO, "tau_sequence": [0.1, 1.0]}},
                 "scenario.tau_sequence", id="limit-maturity-rising-taus"),
    pytest.param("limit-beta",
                 {"scenario": {"kind": "limit_beta", "beta_sequence": [0.5, 0.5]}},
                 "scenario.beta_sequence", id="limit-beta-repeated-beta"),
    pytest.param("discount", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                              "scenario": {"kind": "discount", "alpha_grid": [0.1]}},
                 "valuation.interbank.kind", id="discount-at-maturity"),
    pytest.param("solve", {"valuation": {"interbank": {"kind": "nope"}},
                           "scenario": {"kind": "solve"}},
                 "valuation.interbank", id="unknown-interbank-kind"),
    pytest.param("solve", {"valuation": {"interbank": {"kind": "eisenberg_noe"},
                                         "external": {"kind": "nope"}},
                           "scenario": {"kind": "solve"}},
                 "valuation.external", id="unknown-external-kind"),
])
def test_cli_rejects_coerced_values(tmp_path, capsys, command, document, field):
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", document)
    out = tmp_path / "out.csv"
    assert run_command([command, "--network", network, "--scenario", scenario,
                        "--output", str(out)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_an_unallocatable_run(tmp_path, capsys):
    # 10**17 samples of three banks need 2.4e18 bytes, more than any address
    # space maps, so the draw fails at once without allocating
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json",
                          {"scenario": {**MC_SCENARIO, "samples": 10**17}})
    out = tmp_path / "out.csv"
    assert run_command(["mc-global", "--network", network, "--scenario", scenario,
                        "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Unable to allocate" in err
    assert "Traceback" not in err and err.count("\n") == 1  # one error line
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "2.5", "x"])
def test_cli_rejects_a_seed_flag_the_scenario_would_reject(tmp_path, capsys, seed):
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", {"scenario": MC_SCENARIO})
    out = tmp_path / "out.csv"
    assert run_command(["mc-global", "--network", network, "--scenario", scenario,
                        "--output", str(out), "--seed", seed]) == 2
    assert "--seed:" in capsys.readouterr().err
    assert not out.exists()


# The flags each command reads: the solver flags where its kind solves, --seed
# where its kind reads a seed.
COMMON_FLAGS = ["--scenario", "--network", "--output", "--format"]
SOLVER_FLAGS = ["--epsilon", "--max-iter"]
COMMAND_FLAGS = {
    "solve": COMMON_FLAGS + SOLVER_FLAGS,
    "stress": COMMON_FLAGS + SOLVER_FLAGS,
    "limit-maturity": COMMON_FLAGS + SOLVER_FLAGS,
    "limit-beta": COMMON_FLAGS + SOLVER_FLAGS,
    "curve": COMMON_FLAGS,
    "mc-global": COMMON_FLAGS + SOLVER_FLAGS + ["--seed"],
    "discount": COMMON_FLAGS + SOLVER_FLAGS,
}


def test_each_command_has_only_the_flags_its_kind_reads():
    parser = build_parser()
    (commands,) = [action for action in parser._actions if action.choices]
    flags = {command: [option for action in sub._actions for option in action.option_strings
                       if option not in ("-h", "--help")]
             for command, sub in commands.choices.items()}
    assert flags == COMMAND_FLAGS
    assert sum(map(len, flags.values())) == 41


@pytest.mark.parametrize("command, scenario, flags", [
    ("stress", {"valuation": EN_SOLVE_SCENARIO["valuation"],
                "scenario": {"kind": "stress", "alpha_grid": [0.0]}}, ["--seed", "7"]),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0],
                            "families": [{"family": "furfine", "recovery": 1.0}]}},
     ["--epsilon", "1e-3"]),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0],
                            "families": [{"family": "furfine", "recovery": 1.0}]}},
     ["--max-iter", "2"]),
    ("curve", {"scenario": {"kind": "curve", "equity_grid": [0.0],
                            "families": [{"family": "furfine", "recovery": 1.0}]}},
     ["--seed", "3"]),
], ids=["stress-seed", "curve-epsilon", "curve-max-iter", "curve-seed"])
def test_cli_rejects_a_flag_its_command_does_not_read(tmp_path, capsys, command,
                                                      scenario, flags):
    network = write_json(tmp_path / "net.json", RING_FILE)
    out = tmp_path / "out.csv"
    assert run_command([command, "--network", network, "--output", str(out),
                        "--scenario", write_json(tmp_path / "scn.json", scenario),
                        *flags]) == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob(".neva-*"))


def test_cli_rejects_an_infinite_epsilon_flag(tmp_path, capsys):
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out = tmp_path / "out.csv"
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--output", str(out), "--epsilon", "inf"]) == 2
    assert "epsilon must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, scenario", [
    ("stress", {"kind": "stress", "alpha_grid": [0.0, 0.5]}),
    ("limit-maturity", LIMIT_SCENARIO),
    ("limit-beta", {"kind": "limit_beta", "beta_sequence": [1.0, 0.5]}),
    ("mc-global", MC_SCENARIO),
])
def test_cli_rejects_a_start_its_solves_ignore(tmp_path, capsys, command, scenario):
    # these commands solve from the face values only, so the loader rejects
    # the key before anything is solved
    network = write_json(tmp_path / "net.json", RING_FILE)
    document = {"scenario": scenario, "solver": {"start": "lower_bounds"}}
    if command == "stress":
        document["valuation"] = EN_SOLVE_SCENARIO["valuation"]
    out = tmp_path / "out.csv"
    assert run_command([command, "--network", network, "--output", str(out),
                        "--scenario", write_json(tmp_path / "scn.json", document)]) == 2
    assert "solver.start: does not apply to" in capsys.readouterr().err
    assert not out.exists()


def test_cli_stress_single_point(tmp_path):
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", {
        "valuation": {"interbank": {"kind": "eisenberg_noe"}},
        "scenario": {"kind": "stress", "alpha_grid": [0.0]},
    })
    out = tmp_path / "stress.csv"
    status = run_command(["stress", "--network", network, "--scenario", scenario,
                          "--output", str(out)])
    assert status == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert {r[0] for r in rows} == {"0"}
    assert all(float(r[3]) == 0.0 for r in rows)


def test_cli_exit_one_on_unconverged(tmp_path):
    closed = closed_chain_network()
    network = tmp_path / "net.json"
    dump_network(closed, str(network))
    scenario = write_json(tmp_path / "scn.json", {
        "valuation": {"interbank": {"kind": "eisenberg_noe"}},
        "solver": {"start": "lower_bounds"},
        "scenario": {"kind": "solve"},
    })
    out = tmp_path / "out.csv"
    status = run_command(["solve", "--network", str(network), "--scenario",
                          str(scenario), "--output", str(out), "--max-iter", "1"])
    assert status == 1
    assert out.exists()  # completed run still writes its result


def test_cli_exit_two_on_input_errors(tmp_path):
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    missing = str(tmp_path / "missing.json")
    assert run_command(["solve", "--network", missing, "--scenario", scenario]) == 2
    # scenario kind does not match the subcommand
    assert run_command(["stress", "--network", network, "--scenario", scenario]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    assert run_command(["solve", "--network", network,
                        "--scenario", str(broken)]) == 2
    # argparse errors (unknown command) also count as input errors
    assert run_command(["fly"]) == 2


def test_cli_no_output_file_on_error(tmp_path):
    network = write_json(tmp_path / "net.json", RING_FILE)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    out = tmp_path / "never.csv"
    status = run_command(["solve", "--network", network, "--scenario", str(broken),
                          "--output", str(out)])
    assert status == 2
    assert not out.exists()
    assert not list(tmp_path.glob(".neva-*"))  # no stray temp files either


def test_cli_write_errors_name_the_requested_path(tmp_path, capsys, monkeypatch):
    # a missing directory and an existing directory: the error names the
    # path as given, not the temporary file written beside it, which is gone
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    (tmp_path / "cli").mkdir()
    monkeypatch.chdir(tmp_path)
    for given in (os.path.join("nodir", "out.csv"), "cli"):
        assert run_command(["solve", "--network", network, "--scenario", scenario,
                            "--output", given]) == 2
        err = capsys.readouterr().err
        assert f"'{given}'" in err and ".neva-" not in err
    assert not list(tmp_path.rglob(".neva-*.tmp"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_cli_output_file_mode_follows_the_umask(tmp_path, umask, mode):
    # the mode open(path, "w") gives a new file: 0o666 less the umask
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out = tmp_path / "out.csv"
    previous = os.umask(umask)
    try:
        assert run_command(["solve", "--network", network, "--scenario", scenario,
                            "--output", str(out)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_cli_output_over_an_existing_file_keeps_its_mode(tmp_path):
    # as open(path, "w") does: the replacement gets the old file's mode
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    previous = os.umask(0o022)
    try:
        assert run_command(["solve", "--network", network, "--scenario", scenario,
                            "--output", str(out)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.read_text().startswith("bank_id,")


def test_cli_output_through_a_symlink_writes_its_target(tmp_path):
    # as open(path, "w") does: the link stays a link and its target, in
    # another directory, takes the new text; no temporary file is left
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    (tmp_path / "data").mkdir()
    target, link = tmp_path / "data" / "out.csv", tmp_path / "out.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--output", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text().startswith("bank_id,")
    assert not list(tmp_path.rglob(".neva-*.tmp"))


def test_cli_output_stays_whole_when_rendering_fails_part_way(tmp_path, capsys, monkeypatch):
    # the pieces go to the temporary file as they are made: one that raises
    # after the first leaves the old file byte for byte and no temporary file
    network = write_json(tmp_path / "net.json", RING_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out, old = tmp_path / "out.csv", "old,\u00e9\r\n".encode()
    out.write_bytes(old)
    render, streamed = files._render, []

    def failing(*args):
        yield next(render(*args))
        streamed.extend(tmp_path.glob(".neva-*.tmp"))
        raise MemoryError("no room for the next block")

    monkeypatch.setattr(files, "_render", failing)
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--output", str(out)]) == 2
    assert "no room for the next block" in capsys.readouterr().err
    assert streamed and out.read_bytes() == old
    assert not list(tmp_path.rglob(".neva-*.tmp"))


def test_cli_mc_global_reproducible(tmp_path):
    closed = closed_chain_network()
    network = tmp_path / "net.json"
    dump_network(closed, str(network))
    scenario = write_json(tmp_path / "scn.json", {
        "scenario": {"kind": "mc_global", "sigma": 0.8, "tau": 1.0, "beta": 1.0,
                     "samples": 200},
    })
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        status = run_command(["mc-global", "--network", str(network),
                              "--scenario", str(scenario), "--output", str(out)])
        assert status == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # byte-identical across runs

    # absent seed flag means seed 0, identical to an explicit --seed 0
    explicit = tmp_path / "c.csv"
    run_command(["mc-global", "--network", str(network), "--scenario",
                 str(scenario), "--output", str(explicit), "--seed", "0"])
    assert explicit.read_bytes() == outs[0]

    different = tmp_path / "d.csv"
    run_command(["mc-global", "--network", str(network), "--scenario",
                 str(scenario), "--output", str(different), "--seed", "9"])
    assert different.read_bytes() != outs[0]


def test_cli_mc_global_at_a_given_epsilon_is_the_plain_solve(tmp_path, caplog):
    # a configured epsilon skips the certified early stop: every sample is
    # the stacked solve at that epsilon, and the files are those bytes; the
    # log line names no first step, as none is taken
    network = tmp_path / "net.json"
    dump_network(closed_chain_network(), str(network))
    net = load_network(network)
    scenario = write_json(tmp_path / "scn.json", {
        "solver": {"epsilon": 1e-9},
        "scenario": {"kind": "mc_global", "sigma": 0.8, "tau": 1.0, "beta": 0.5,
                     "samples": 50, "seed": 4}})
    normals = np.random.default_rng(4).standard_normal((50, net.n))
    bound = ValuationSpec.eisenberg_noe_haircut(0.5).bind(
        net, net.external_assets * np.exp(0.8 * normals - 0.32))
    solutions, *_, converged = _solve(bound, bound.book_equity, SolveConfig(epsilon=1e-9))
    assert converged.all()
    expected = MonteCarloResult(
        mean=solutions.sum(axis=0) / 50, std_error=solutions.std(axis=0, ddof=1) / np.sqrt(50),
        samples=50, dropped=0, seed=4, valid=True, bias_bound=np.zeros(net.n), certified=0)
    for fmt in ("csv", "json"):
        out = tmp_path / f"mc.{fmt}"
        assert run_command(["mc-global", "--network", str(network), "--scenario", scenario,
                            "--output", str(out), "--format", fmt]) == 0
        assert out.read_text() == serialize_results(expected, fmt, net)
    with caplog.at_level("INFO", logger="neva"):
        neva.monte_carlo_global_valuation(net, 0.8, 1.0, 0.5, 50, 4, SolveConfig(epsilon=1e-9))
    assert caplog.records[-1].getMessage() == (
        "monte carlo: 0 of 50 samples certified, bias bound 0")


def test_cli_mc_global_json_writes_null_for_dropped_means(tmp_path, caplog):
    # every sample dropped leaves NaN means and errors: null in JSON, which
    # has no NaN, and nan in CSV as before
    network = tmp_path / "net.json"
    dump_network(closed_chain_network(), str(network))
    scenario = write_json(tmp_path / "scn.json", {
        "solver": {"max_iterations": 1},
        "scenario": {"kind": "mc_global", "sigma": 2.0, "tau": 1.0, "samples": 3, "seed": 1}})
    out = tmp_path / "mc.json"
    assert run_command(["mc-global", "--network", str(network), "--scenario", scenario,
                        "--output", str(out), "--format", "json"]) == 1

    def reject(constant):
        raise ValueError(f"JSON holds {constant}")

    rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
    assert [(row["mean_equity"], row["std_error"], row["dropped"]) for row in rows] \
        == [(None, None, 3)] * 3
    assert run_command(["mc-global", "--network", str(network), "--scenario", scenario,
                        "--output", str(tmp_path / "mc.csv")]) == 1
    assert (tmp_path / "mc.csv").read_text().splitlines()[1] == "A,nan,nan,3,3"


def test_cli_mc_global_logs_its_certificate_at_info(tmp_path, monkeypatch, capsys, caplog):
    # one line: the certified count, the largest bias bound and the first step as a
    # share of the median scale (never below a fixed 1e-6 step)
    monkeypatch.setenv("NEVA_LOG", "info")
    network = tmp_path / "net.json"
    dump_network(closed_chain_network(), str(network))
    scenario = write_json(tmp_path / "scn.json", {"scenario": {
        "kind": "mc_global", "sigma": 0.8, "tau": 1.0, "samples": 20}})
    assert run_command(["mc-global", "--network", str(network), "--scenario", scenario,
                        "--output", str(tmp_path / "mc.csv")]) == 0
    logged = capsys.readouterr().err
    with caplog.at_level("INFO", logger="neva"):
        result = neva.monte_carlo_global_valuation(load_network(network), 0.8, 1.0, 1.0, 20)
    message = caplog.records[-1].getMessage()
    assert logged == f"neva: INFO: {message}\n"
    line = re.fullmatch(r"monte carlo: (\d+) of 20 samples certified, bias bound (\S+), step "
                        r"(\S+) of the median scale", message)
    assert int(line[1]) == result.certified
    assert line[2] == f"{result.bias_bound.max():.3g}" and 1e-6 <= float(line[3]) <= 1e-3


def test_cli_epsilon_override_applies(tmp_path):
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    out = tmp_path / "out.json"
    status = run_command(["solve", "--network", network, "--scenario", scenario,
                          "--output", str(out), "--format", "json",
                          "--epsilon", "1e-3"])
    assert status == 0


def _child_env(**extra) -> dict:
    """The environment of a child that imports the same neva as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(neva.__file__))
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_entry_point_subprocess(tmp_path):
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    proc = subprocess.run(
        [sys.executable, "-m", "neva.cli", "solve", "--network", network,
         "--scenario", scenario], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("bank_id,")


def test_package_entry_point_lists_every_command():
    proc = subprocess.run([sys.executable, "-m", "neva", "--help"], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0
    assert "{solve,stress,limit-maturity,limit-beta,curve,mc-global,discount}" in proc.stdout


def test_package_entry_point_without_a_command_exits_two():
    proc = subprocess.run([sys.executable, "-m", "neva"], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: neva ")


def test_package_main_in_process_exits_with_the_command_status(monkeypatch, capsys):
    # the subprocess tests above, run in this process so that a line trace of
    # the suite sees neva/__main__.py and cli.main
    for argv, status in ((["--help"], 0), ([], 2)):
        monkeypatch.setattr(sys, "argv", ["neva", *argv])
        with pytest.raises(SystemExit) as stopped:
            runpy.run_module("neva", run_name="__main__")
        assert stopped.value.code == status
    out, err = capsys.readouterr()
    assert out.startswith("usage: neva ") and err.startswith("usage: neva ")


def test_cli_logging_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NEVA_LOG", "error")
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    scenario = write_json(tmp_path / "scn.json", EN_SOLVE_SCENARIO)
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--output", str(tmp_path / "o.csv")]) == 0
    monkeypatch.setenv("NEVA_LOG", "debug")
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--output", str(tmp_path / "o2.csv")]) == 0
    monkeypatch.setenv("NEVA_LOG", "INFO")  # the level's case does not matter
    assert run_command(["solve", "--network", network, "--scenario", scenario,
                        "--output", str(tmp_path / "o3.csv")]) == 0


def test_cli_rejects_an_unknown_log_level(tmp_path, monkeypatch, capsys):
    # exits 2 before any file is read: the scenario path does not exist
    monkeypatch.setenv("NEVA_LOG", "verbose")
    assert run_command(["solve", "--network", str(tmp_path / "net.json"),
                        "--scenario", str(tmp_path / "scn.json")]) == 2
    assert capsys.readouterr().err == ("neva: ERROR: NEVA_LOG: expected one of "
                                       "error, warn, info, debug, got 'verbose'\n")


# Four mc-global runs in one fresh interpreter: two grow the heap to its
# high-water mark, and the last two count this process's minor page faults.
FAULT_COUNTER = """
import resource, sys
from neva.cli import run_command
for run in range(4):
    if run == 2:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run_command(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
def test_cli_monte_carlo_runs_without_page_faults(tmp_path):
    # each sweep of a (750, 50) stack allocates and frees 300 kB temporaries;
    # with glibc's default thresholds they are mapped afresh or trimmed away
    # and fault back in, hundreds to thousands of pages per warm run
    rng = np.random.default_rng(13)
    n = 50
    liabilities = rng.lognormal(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(liabilities, 0.0)
    assets = 3.0 * liabilities.sum(axis=0).mean() * rng.lognormal(-0.125, 0.5, n)
    external = np.maximum(0.95 * (assets + liabilities.sum(axis=0))
                          - liabilities.sum(axis=1), 0.0)
    network = str(tmp_path / "net.json")
    dump_network(FinancialNetwork([f"B{k}" for k in range(n)], assets, external,
                                  liabilities), network)
    scenario = write_json(tmp_path / "scn.json", {"scenario": {
        "kind": "mc_global", "sigma": 0.2, "tau": 1.0, "samples": 750, "seed": 1}})
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_COUNTER, "mc-global", "--network", network,
         "--scenario", scenario, "--output", str(tmp_path / "mc.csv")],
        capture_output=True, text=True, check=True,
        env=_child_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"))
    assert int(proc.stdout) <= 64


# A stress and an mc-global run in one fresh interpreter, then the modules of
# numpy.ma, scipy and dataclasses that they loaded.
PRO_RATA_MODULES = """
import json, sys
from neva.cli import run_command
network, stress, mc, out = sys.argv[1:]
for command, scenario in (("stress", stress), ("mc-global", mc)):
    assert run_command([command, "--network", network, "--scenario", scenario,
                        "--output", out]) == 0
print(json.dumps(sorted(name for name in sys.modules
                        if name in ("numpy.ma", "scipy", "dataclasses")
                        or name.startswith(("numpy.ma.", "scipy.")))))
"""


def test_pro_rata_commands_load_neither_numpy_ma_nor_scipy(tmp_path):
    # the pro-rata families need no closed form, and the Monte Carlo stop takes its
    # median with np.sort: numpy.ma costs about 1.8 MB of RSS, and scipy.special
    # about 20 MB, with numpy.f2py and numpy.testing, which it pulls in; neva's
    # records need no dataclasses, whose decorators compile code at every import
    network = write_json(tmp_path / "net.json", RING_FILE)
    stress = write_json(tmp_path / "stress.json", {
        "valuation": EN_SOLVE_SCENARIO["valuation"],
        "scenario": {"kind": "stress", "alpha_grid": [0.0, 0.5]}})
    mc = write_json(tmp_path / "mc.json", {"scenario": MC_SCENARIO})
    proc = subprocess.run([sys.executable, "-c", PRO_RATA_MODULES, network, stress, mc,
                           str(tmp_path / "out.csv")], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_heap_step_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._pin_heap.__wrapped__() is None


def test_cli_limit_maturity(tmp_path):
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    scenario = write_json(tmp_path / "scn.json", {
        "scenario": {"kind": "limit_maturity", "sigma": 1.0,
                     "tau_sequence": [1.0, 1e-2, 1e-4, 1e-6], "beta": 1.0},
    })
    out = tmp_path / "limit.csv"
    status = run_command(["limit-maturity", "--network", network,
                          "--scenario", scenario, "--output", str(out)])
    assert status == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert rows[0][0] == "1"
    final = [r for r in rows if float(r[0]) == 1e-6]
    assert final and all(float(r[3]) < 1e-3 for r in final)


def test_cli_limit_beta(tmp_path):
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    scenario = write_json(tmp_path / "scn.json", {
        "scenario": {"kind": "limit_beta",
                     "beta_sequence": [2.0 ** -l for l in range(11)]},
    })
    out = tmp_path / "limit.json"
    status = run_command(["limit-beta", "--network", network,
                          "--scenario", scenario, "--output", str(out),
                          "--format", "json"])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["parameter_name"] == "beta"
    parameters = [row["parameter"] for row in payload["rows"]]
    assert parameters == sorted(parameters, reverse=True)


@pytest.mark.parametrize("command, scenario", [
    ("limit-maturity", {"kind": "limit_maturity", "sigma": 0.5,
                        "tau_sequence": {"min": 0.1, "max": 0.9, "points": 3}}),
    ("limit-beta", {"kind": "limit_beta",
                    "beta_sequence": {"min": 0.1, "max": 0.9, "points": 3}}),
])
def test_cli_limit_object_grid_runs_from_max_to_min(tmp_path, command, scenario):
    network = write_json(tmp_path / "net.json", OPEN_CHAIN_FILE)
    out = tmp_path / "limit.csv"
    assert run_command([command, "--network", network, "--output", str(out),
                        "--scenario", write_json(tmp_path / "scn.json",
                                                 {"scenario": scenario})]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    parameters = list(dict.fromkeys(float(row[0]) for row in rows))
    assert parameters == pytest.approx([0.9, 0.5, 0.1])
    assert parameters[0] == 0.9 and parameters[-1] == 0.1  # the grid's own ends


def test_discount_comparison_serialization(ring):
    spec = ValuationSpec.exante_en_gbm(sigma=0.1, maturity=25.0)
    comparisons = neva.merton_vs_network_discount(ring, spec, [0.1, 0.4])
    text = serialize_results(comparisons, "csv", ring)
    lines = text.strip().splitlines()
    assert lines[0] == ("alpha,lender,borrower,merton_discount,"
                        "network_discount,difference")
    assert len(lines) == 1 + 2 * 3  # two shocks, three edges
    payload = json.loads(serialize_results(comparisons, "json", ring))
    assert all(row["difference"] >= -1e-9 for row in payload["rows"])


def test_cli_discount_is_the_api_call(tmp_path, ring):
    network = write_json(tmp_path / "net.json", RING_FILE)
    valuation = {"interbank": {**GBM_VALUATION, "sigma": 0.1, "maturity": 25.0}}
    scenario = write_json(tmp_path / "scn.json", {
        "valuation": valuation, "scenario": {"kind": "discount", "alpha_grid": [0.1, 0.4]}})
    comparisons = neva.merton_vs_network_discount(
        ring, ValuationSpec.exante_en_gbm(sigma=0.1, maturity=25.0), [0.1, 0.4])
    out = tmp_path / "discount.out"
    for fmt in ("csv", "json"):
        assert run_command(["discount", "--network", network, "--scenario", scenario,
                            "--output", str(out), "--format", fmt]) == 0
        assert out.read_text() == serialize_results(comparisons, fmt, ring)
    # a point that does not converge exits 1; a family at maturity is an input error
    assert run_command(["discount", "--network", network, "--scenario", scenario,
                        "--output", str(out), "--max-iter", "1"]) == 1
    scenario = write_json(tmp_path / "scn.json", {
        "valuation": EN_SOLVE_SCENARIO["valuation"],
        "scenario": {"kind": "discount", "alpha_grid": [0.1]}})
    out.unlink()
    assert run_command(["discount", "--network", network, "--scenario", scenario,
                        "--output", str(out)]) == 2
    assert not out.exists()


def test_scenario_per_bank_sigma(tmp_path):
    payload = {
        "valuation": {"interbank": {"kind": "exante_en_gbm",
                                    "sigma": [0.1, 0.2, 0.3],
                                    "maturity": 1.0, "beta": 1.0}},
        "scenario": {"kind": "solve"},
    }
    scenario = load_scenario(write_json(tmp_path / "s.json", payload))
    assert scenario.valuation.sigma == (0.1, 0.2, 0.3)
    network = write_json(tmp_path / "net.json", RING_FILE)
    out = tmp_path / "out.json"
    status = run_command(["solve", "--network", network,
                          "--scenario", str(tmp_path / "s.json"),
                          "--output", str(out), "--format", "json"])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True


def test_every_traced_name_resolves():
    # perfbench/layers.py wraps these attributes by name for `--trace 1`; a
    # rename here would break the per-layer benchmark run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for targets in layers.TARGETS.values():
        for module_name, attribute_path in targets:
            owner = importlib.import_module(module_name)
            for name in attribute_path.split("."):
                owner = getattr(owner, name, None)
            if not callable(owner):
                missing.append(f"{module_name}.{attribute_path}")
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in neva.__all__ if not hasattr(neva, name)]
    assert missing == []
    assert len(set(neva.__all__)) == len(neva.__all__)
