"""File formats and result serialization.

JSON is the canonical input format for networks and scenarios; results are
emitted as CSV (fixed, documented columns) or JSON rows mirroring the same
fields.  Liability edges are oriented debtor -> creditor, and the loader
passes them to the network as edges, so a file edge ``{"debtor": "B",
"creditor": "A"}`` makes bank A the lender.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import os
import re
import stat
import sys
from collections import Counter
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import analysis, solver
from .analysis import (DiscountComparison, LimitSeries, MonteCarloResult,
                       StressResult)
from .network import FinancialNetwork, NetworkError, Record, _invalid, _invalid_edges
from .solver import FACE_VALUES, LOWER_BOUNDS, SolveConfig, SolveReport
from .valuation import (EXTERNAL_FAMILIES, INTERBANK_FAMILIES,
                        PARAMETER_CHECKS, SpecError, ValuationSpec, _log_move)

__all__ = [
    "FileFormatError",
    "load_network",
    "network_to_dict",
    "dump_network",
    "Scenario",
    "load_scenario",
    "CurveTable",
    "evaluate_curves",
    "serialize_results",
    "render_results",
    "write_output",
]

log = logging.getLogger("neva")

# More grid points than any experiment needs; np.linspace allocates them all.
MAX_GRID_POINTS = 100_000


class FileFormatError(ValueError):
    """Raised for unparsable or schema-violating input files."""


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc


# What a message calls the value of a parsed JSON type.
_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
              int: "a number", float: "a number", type(None): "null"}


def _require(mapping, key, context, kind=None):
    """``mapping[key]``, which must be there and (when given) of type ``kind``."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise FileFormatError(f"{context}: missing field {key!r}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise FileFormatError(f"{context}.{key}: expected {_JSON_NAMES[kind]}, "
                              f"got {_JSON_NAMES[type(value)]}")
    return value


def _known(block: dict, keys, context, reader) -> None:
    """Reject the first field of ``block`` that is not in ``keys``, the
    fields ``reader`` reads: a misspelt field is an error, not ignored."""
    for key in block:
        if key not in keys:
            raise FileFormatError(f"{context}.{key}: does not apply to {reader}")


def _number(value, where) -> float:
    """``value`` as a float; booleans, strings, other types and integers
    beyond the float range are rejected with ``where``, the value's context
    path, in the message."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FileFormatError(f"{where}: expected a number, got an integer beyond "
                              "the float range") from None


def _finite(value, where) -> float:
    """``value`` as a finite float, for numbers that no parameter check bounds."""
    number = _number(value, where)
    if not np.isfinite(number):
        raise FileFormatError(f"{where}: expected a finite number, got {number}")
    return number


def _whole(value, where) -> int:
    """``value`` as an int; like ``_number``, and a fractional part or a
    negative count is an error."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: expected a whole number, got {value!r}")
    if value < 0:
        raise FileFormatError(f"{where}: must not be negative")
    return value


def _count(value, where) -> int:
    """``value`` as a whole number of at least 1."""
    if (count := _whole(value, where)) < 1:
        raise FileFormatError(f"{where}: must be at least 1")
    return count


def _numbers(value, where):
    """A number, or a list of numbers as a tuple."""
    if isinstance(value, list):
        return tuple(_number(v, f"{where}[{k}]") for k, v in enumerate(value))
    return _number(value, where)


def _field(mapping, key, context, read=_number, default=None):
    """``mapping[key]`` through ``read``; ``default`` (when given) stands in
    for an absent key."""
    value = (_require(mapping, key, context) if default is None
             else mapping.get(key, default))
    return read(value, f"{context}.{key}")


def _checked(name):
    """A ``_field`` reader: a number checked like valuation parameter ``name``."""
    def read(value, where) -> float:
        try:
            return PARAMETER_CHECKS[name](name, _number(value, where))
        except SpecError as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
    return read


def _column(rows, key, types, other) -> list:
    """Field ``key`` of every row; ``other`` stands in for a value whose type
    is not one of ``types``, a missing field and a row that is not an object."""
    try:
        column = list(map(itemgetter(key), rows))
    except (KeyError, TypeError):
        column = [row.get(key) if isinstance(row, dict) else None for row in rows]
    if set(map(type, column)) <= types:
        return column
    return [value if type(value) in types else other for value in column]


def _amounts(rows, key) -> np.ndarray:
    """Field ``key`` of every row as floats; NaN or inf, which the amount
    checks reject, where it is not a number or lies beyond the float range."""
    column = _column(rows, key, {int, float}, np.nan)
    try:
        return np.array(column, dtype=float)
    except OverflowError:  # from an integer, which as text reads as inf
        return np.array([float(str(value)) for value in column])


def _indices(ids, index: dict) -> np.ndarray:
    """Positions of ``ids`` in ``index``; -1 for an id it does not hold."""
    return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))


def _unread(rows, fields, context, reader) -> None:
    """``_known`` for rows that hold each of ``fields``, so that a row with
    more keys holds an unread one: one pass over the rows, and the first
    such row looked up only on failure."""
    if sum(map(len, rows)) > len(fields) * len(rows):
        k = next(k for k, row in enumerate(rows) if len(row) > len(fields))
        _known(rows[k], fields, f"{context}[{k}]", reader)


def _reject_edge(edge, context, index: dict) -> None:
    """Raise the error of a liability row that the column checks found
    invalid: the first of its faults in the order the fields are read."""
    debtor = _require(edge, "debtor", context, str)
    creditor = _require(edge, "creditor", context, str)
    amount = _field(edge, "amount", context)
    for bank in (debtor, creditor):
        if bank not in index:
            raise FileFormatError(f"{context}: unknown bank id {bank!r}")
    if debtor == creditor:
        raise FileFormatError(f"{context}: self-loan {debtor!r} -> {creditor!r}")
    raise FileFormatError(
        f"{context}: edge {debtor!r} -> {creditor!r} has invalid amount {amount}")


def load_network(path) -> FinancialNetwork:
    """Read a network JSON file and return the validated network.

    Bank ids are strings and ``liabilities`` (absent: no edges) is a list.
    Duplicate (debtor, creditor) edges are summed in file order with a
    warning; non-string ids, amounts that are not finite nonnegative
    numbers, self-loans, unknown bank ids and unread fields are rejected
    with the first offending entry named.  Each field is read as one column
    and checked with array masks: O(banks + edges), no n x n matrix.
    """
    data = _load_json(path)
    banks = _require(data, "banks", str(path), list)
    _known(data, ("banks", "liabilities"), str(path), "a network file")
    if not banks:
        raise FileFormatError(f"{path}: banks list is empty")
    ids = _column(banks, "id", {str}, None)
    assets = _amounts(banks, "external_assets")
    liabilities = _amounts(banks, "external_liabilities")
    bad = _invalid(assets) | _invalid(liabilities) | np.array([b is None for b in ids])
    if bad.any():
        k = int(np.argmax(bad))
        context = f"{path}: banks[{k}]"
        _require(banks[k], "id", context, str)
        for key in ("external_assets", "external_liabilities"):
            value = _field(banks[k], key, context)
            if _invalid(np.float64(value)):
                raise FileFormatError(
                    f"{context}.{key}: expected a finite nonnegative number, got {value}")
    _unread(banks, ("id", "external_assets", "external_liabilities"), f"{path}: banks",
            "a bank")
    index = {bank_id: k for k, bank_id in enumerate(ids)}
    if len(index) != len(ids):
        dupes = sorted(b for b, count in Counter(ids).items() if count > 1)
        raise FileFormatError(f"{path}: duplicate bank ids {dupes}")
    edges = (_require(data, "liabilities", str(path), list)
             if "liabilities" in data else [])
    debtors = _indices(_column(edges, "debtor", {str}, None), index)
    creditors = _indices(_column(edges, "creditor", {str}, None), index)
    amounts = _amounts(edges, "amount")
    bad = _invalid_edges(len(ids), debtors, creditors, amounts)
    if bad.any():
        k = int(np.argmax(bad))
        _reject_edge(edges[k], f"{path}: liabilities[{k}]", index)
    _unread(edges, ("debtor", "creditor", "amount"), f"{path}: liabilities",
            "a liability")
    try:  # the per-bank sums may still overflow
        net, repeated = FinancialNetwork._from_edges(ids, assets, liabilities,
                                                     debtors, creditors, amounts)
    except NetworkError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    for k in repeated:
        log.warning("%s: duplicate edge %s -> %s; amounts summed",
                    path, ids[debtors[k]], ids[creditors[k]])
    return net


def network_to_dict(net: FinancialNetwork) -> dict:
    """The network as a network-file document; edges debtor-major: O(edges)."""
    ids = net.bank_ids
    banks = [{"id": bank, "external_assets": assets, "external_liabilities": liabilities}
             for bank, assets, liabilities in zip(ids, net.external_assets.tolist(),
                                                  net.external_liabilities.tolist())]
    order = np.lexsort((net.creditors, net.debtors))
    edges = [{"debtor": ids[i], "creditor": ids[j], "amount": amount}
             for i, j, amount in zip(net.debtors[order].tolist(),
                                     net.creditors[order].tolist(),
                                     net.amounts[order].tolist())]
    return {"banks": banks, "liabilities": edges}


def dump_network(net: FinancialNetwork, path) -> None:
    write_output(json.dumps(network_to_dict(net), indent=2) + "\n", path)


def _parse_valuation(block, context) -> ValuationSpec:
    """Spec of a ``valuation`` block; each parameter sits in the block
    (``interbank`` or ``external``) whose family reads it."""
    interbank = _require(block, "interbank", context, dict)
    _known(block, ("interbank", "external"), context, "a valuation block")
    external = block.get("external", {})
    if not isinstance(external, dict):
        raise FileFormatError(f"{context}.external: expected an object")
    fields = {}
    for side, part, table in (("interbank", interbank, INTERBANK_FAMILIES),
                              ("external", {"kind": ValuationSpec.external_kind,
                                            **external}, EXTERNAL_FAMILIES)):
        where = f"{context}.{side}"
        kind = _require(part, "kind", where, str)
        if kind not in table:
            raise FileFormatError(f"{where}: unknown kind {kind!r}")
        fields[f"{side}_kind"] = kind
        params = table[kind].params
        _known(part, ("kind",) + params, where, kind)
        for name in params:
            if name in part:
                read = _numbers if name == "sigma" else _number  # sigma may be per bank
                fields[name] = read(part[name], f"{where}.{name}")
    try:
        return ValuationSpec(**fields)
    except SpecError as exc:
        raise FileFormatError(f"{context}: {exc}") from exc


def _start(value, where) -> str:
    if value not in (FACE_VALUES, LOWER_BOUNDS):
        raise FileFormatError(f"{where}: expected {FACE_VALUES!r} or {LOWER_BOUNDS!r}, "
                              f"got {value!r}")
    return value


def _parse_solver(block, context, reader, keys) -> SolveConfig:
    """Solver controls; ``keys`` are the other fields the block may hold."""
    if not isinstance(block, dict):
        raise FileFormatError(f"{context}: expected an object, got {_JSON_NAMES[type(block)]}")
    _known(block, ("epsilon", "max_iterations") + keys, context, reader)
    fields = {key: _field(block, key, context, read) for key, read in
              (("epsilon", _number), ("max_iterations", _whole)) if key in block}
    try:
        return SolveConfig(**fields)
    except ValueError as exc:
        raise FileFormatError(f"{context}: {exc}") from exc


def _grid(read, descending=False):
    """A ``_field`` reader of a grid: a non-empty list or a min/max/points
    object, entries read by ``read``; when ``descending``, the object runs
    from max down to min and a list must be strictly decreasing."""
    def grid(value, where) -> list:
        if isinstance(value, dict):
            _known(value, ("min", "max", "points"), where, "a min/max/points grid")
            lo = _field(value, "min", where, read)
            hi = _field(value, "max", where, read)
            points = _field(value, "points", where, _whole)
            if not 2 <= points <= MAX_GRID_POINTS or not 0 < hi - lo < np.inf:
                raise FileFormatError(f"{where}: need 2-{MAX_GRID_POINTS} points, "
                                      "max > min and max - min finite")
            value = list(np.linspace(*((hi, lo) if descending else (lo, hi)), points))
        elif not isinstance(value, list) or not value:
            raise FileFormatError(f"{where}: expected a non-empty list or min/max/points")
        values = [read(v, f"{where}[{k}]") for k, v in enumerate(value)]
        if descending and any(b >= a for a, b in zip(values, values[1:])):
            raise FileFormatError(f"{where}: must be strictly decreasing")
        return values
    return grid


def _parse_curve(entry, context) -> dict:
    """One curve family entry: its name plus every field its factors read,
    parameters checked like those of a ``ValuationSpec`` and amounts (not book
    equity, which may have either sign) like those of a network."""
    name = _require(entry, "family", context, str)
    family = INTERBANK_FAMILIES.get(name)
    if family is None:
        raise FileFormatError(f"{context}: unknown family {name!r}")
    lender = ("lender_equity",) if family.lender is not None else ()
    _known(entry, ("family",) + family.fields + lender, context, f"family {name!r}")
    curve = {"family": name}
    for key in family.fields:
        curve[key] = _field(entry, key, context,
                            _checked(key) if key in PARAMETER_CHECKS else _finite)
        if key in ("obligations", "external_assets") and curve[key] < 0:
            raise FileFormatError(f"{context}.{key}: expected a finite nonnegative number, "
                                  f"got {curve[key]}")
    where = f"{context}.sigma"
    try:
        if "sigma" in curve:
            _log_move(curve["sigma"], curve["maturity"])
        where = context
        family.bind(curve)  # what it prepares must lie in the float range
    except SpecError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    if lender:
        curve["lender_equity"] = _field(entry, "lender_equity", context, _finite, default=0.0)
    return curve


def _curves(value, where) -> list:
    if not isinstance(value, list):
        raise FileFormatError(f"{where}: expected a list, got {_JSON_NAMES[type(value)]}")
    return [_parse_curve(entry, f"{where}[{k}]") for k, entry in enumerate(value)]


class ScenarioKind(Record, eq=True):
    """One scenario kind.  ``fields`` and ``solver_fields`` map the fields the
    ``scenario`` and ``solver`` blocks read to ``(reader, default)`` (None:
    required).  ``run(net, valuation, config, **fields)`` looks its function up
    when called, so tracing wrappers see the call; exit 1 unless ``complete``.
    ``check = (where, test)``, where given, rejects at load, at the path
    ``where``, what ``test(valuation, **fields)`` raises ``SpecError`` for: a
    sigma admissible alone but not with the maturity, or a valuation the run
    does not take."""

    fields: dict
    run: Callable
    complete: Callable
    valuation: bool = False  # reads a valuation block
    solves: bool = True  # solves on a network: needs one, reads solver controls
    solver_fields: dict = {}  # shared by the kinds without solver fields: never changed
    check: Optional[tuple] = None


SCENARIO_KINDS = {
    "solve": ScenarioKind(
        {}, lambda net, spec, config, start: solver.solve(net, spec, config, start),
        lambda report: report.converged, valuation=True,
        solver_fields={"start": (_start, FACE_VALUES)}),
    "stress": ScenarioKind(
        {"alpha_grid": (_grid(_checked("alpha")), None)},
        lambda net, spec, config, alpha_grid: analysis.stress_test(
            net, spec, alpha_grid, config),
        lambda points: all(point.report.converged for point in points), valuation=True),
    "limit_maturity": ScenarioKind(
        {"tau_sequence": (_grid(_checked("maturity"), descending=True), None),
         "sigma": (_checked("sigma"), None), "beta": (_checked("beta"), 1.0)},
        lambda net, spec, config, tau_sequence, sigma, beta:
            analysis.maturity_limit_experiment(net, sigma, tau_sequence, beta, config),
        lambda series: not series.partial,
        check=("scenario.sigma", lambda spec, tau_sequence, sigma, beta:
               [ValuationSpec.exante_en_gbm(sigma, tau, beta)
                for tau in (tau_sequence[0], tau_sequence[-1])])),
    "limit_beta": ScenarioKind(
        {"beta_sequence": (_grid(_checked("beta"), descending=True), None)},
        lambda net, spec, config, beta_sequence: analysis.debtrank_limit_experiment(
            net, beta_sequence, config),
        lambda series: not series.partial),
    "curve": ScenarioKind(
        {"equity_grid": (_grid(_finite), None), "families": (_curves, None)},
        lambda net, spec, config, equity_grid, families: evaluate_curves(
            families, equity_grid),
        lambda table: True, solves=False),
    "mc_global": ScenarioKind(
        {"tau": (_checked("maturity"), None), "samples": (_count, None), "seed": (_whole, 0),
         "sigma": (_checked("sigma"), None), "beta": (_checked("beta"), 1.0)},
        lambda net, spec, config, **fields: analysis.monte_carlo_global_valuation(
            net, config=config, **fields),
        lambda result: result.valid,
        check=("scenario.sigma", lambda spec, tau, sigma, beta, **_:
               ValuationSpec.exante_en_gbm(sigma, tau, beta))),
    "discount": ScenarioKind(
        {"alpha_grid": (_grid(_checked("alpha")), None)},
        lambda net, spec, config, alpha_grid: analysis.merton_vs_network_discount(
            net, spec, alpha_grid, config),
        lambda points: all(point.converged for point in points), valuation=True,
        check=("valuation.interbank.kind", lambda spec, **_: analysis._before_maturity(spec))),
}


class Scenario(Record, eq=True):
    """Parsed scenario file: a valuation spec and solver controls (when the
    kind reads them), the scenario kind and the fields its row reads."""

    kind: str
    valuation: Optional[ValuationSpec]
    solver: Optional[SolveConfig]
    params: dict


def load_scenario(path) -> Scenario:
    data = _load_json(path)
    context = f"{path}: scenario"
    block = _require(data, "scenario", str(path), dict)
    name = _require(block, "kind", context, str)
    if name not in SCENARIO_KINDS:
        raise FileFormatError(f"{path}: unknown scenario kind {name!r}")
    kind, reader = SCENARIO_KINDS[name], f"a {name} scenario"
    _known(data, ("scenario",) + ("solver",) * kind.solves + ("valuation",) * kind.valuation,
           str(path), reader)
    _known(block, ("kind", *kind.fields), context, reader)
    config = _parse_solver(data.get("solver", {}), f"{path}: solver", reader,
                           tuple(kind.solver_fields)) if kind.solves else None
    if kind.valuation and "valuation" not in data:
        raise FileFormatError(f"{path}: scenario kind {name!r} needs a valuation block")
    valuation = (_parse_valuation(data["valuation"], f"{path}: valuation")
                 if kind.valuation else None)
    params = {key: _field(source, key, where, read, default)
              for source, where, fields in (
                  (block, context, kind.fields),
                  (data.get("solver", {}), f"{path}: solver", kind.solver_fields))
              for key, (read, default) in fields.items()}
    if kind.check is not None:
        where, test = kind.check
        try:
            test(valuation, **params)
        except SpecError as exc:
            raise FileFormatError(f"{path}: {where}: {exc}") from exc
    return Scenario(kind=name, valuation=valuation, solver=config, params=params)


class CurveTable(Record, eq=True):
    """Rows of (family label, equity, factor value)."""

    rows: tuple


def evaluate_curves(families: list, grid) -> CurveTable:
    """Evaluate standalone factor curves over an equity grid.

    Each family entry carries its own balance-sheet constants, so curves can
    be drawn without a network (e.g. to compare valuation rules directly).
    Entries are checked as a curve scenario's ``families`` are, and a bad one
    raises ``FileFormatError`` naming it (``families[k]``).
    """
    grid = np.asarray(grid, dtype=float)
    rows = []
    for k, entry in enumerate(families):
        curve = _parse_curve(entry, f"families[{k}]")
        name = curve["family"]
        family = INTERBANK_FAMILIES[name]
        factor, lender = family.bind(curve)
        values = factor(grid)
        if lender is not None:
            values = lender(curve["lender_equity"]) * values
        values = np.broadcast_to(np.asarray(values, dtype=float), grid.shape)
        rows.extend((name, float(e), float(v)) for e, v in zip(grid, values))
    return CurveTable(rows=tuple(rows))


# A result table is (kind, header, columns, JSON fields besides the rows).
# A column is (values, index): row r holds values[index[r]] (values[r] when
# the index is None).  Values are a float array, formatted block by block,
# or a list of labels and shared values, each rendered once; index -1
# of a float array leaves the cell empty (JSON null).
BLOCK_ROWS = 1024  # rows per piece of rendered text


def _json_safe(value):
    """``value`` (a list, recursively) with each non-finite float, which JSON lacks, as None."""
    return (list(map(_json_safe, value)) if isinstance(value, list) else
            None if isinstance(value, float) and not np.isfinite(value) else value)


def _rendered(values, index, csv_text: bool) -> tuple:
    """A column, its labels rendered once and its floats, NaN-padded if an index is -1."""
    if isinstance(values, np.ndarray):  # index -1 reads the appended NaN; else no copy
        return (values if index is None or index.min(initial=0) >= 0
                else np.append(values, np.nan)), index
    return np.array([_text(v) if csv_text else json.dumps(_json_safe(v)) for v in values],
                    dtype=object), index


def _cells(values, index, rows: slice, csv_text: bool) -> list:
    """The text of ``rows`` of a column made by ``_rendered``."""
    taken = values[rows if index is None else index[rows]]
    if taken.dtype == object:
        return taken.tolist()
    if not csv_text:  # one list through the C encoder; no float's text holds ", "
        listed = taken.tolist() if np.isfinite(taken).all() else _json_safe(taken.tolist())
        return json.dumps(listed)[1:-1].split(", ")
    cells = ("\n".join(["%.17g"] * len(taken)) % tuple(taken.tolist())).split("\n")
    for k in [] if index is None else np.flatnonzero(index[rows] < 0):
        cells[k] = ""
    return cells


def _floats(values, index=None) -> tuple:
    return np.asarray(values, dtype=float).ravel(), index


def _repeat(values, count) -> tuple:
    """Value ``k`` fills ``count`` (or ``count[k]``) consecutive rows."""
    return list(values), np.repeat(np.arange(len(values)), count)


def _labels(values) -> tuple:
    """A column of repeating labels (names, flags), each rendered once."""
    position = {value: k for k, value in enumerate(dict.fromkeys(values))}
    return list(position), np.array([position[value] for value in values], dtype=np.intp)


# Text that csv.writer never quotes (not the empty string, which it may).
_PLAIN = re.compile(r"[A-Za-z0-9_.:-]+")


def _quoted(text: str) -> str:
    """``text`` as one CSV field, quoted where ``csv.writer`` quotes it; with a
    CRLF terminator it quotes a carriage return as well as a newline."""
    if _PLAIN.fullmatch(text):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow((text, ""))
    return buffer.getvalue()[:-3]  # drop the empty second field's ",\r\n"


def _text(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, str):
        return _quoted(value)
    return str(value)


def _alphas(results) -> list:
    """The uniform shock of each point, or the largest entry of its vector."""
    return [float(res.alpha if res.alpha is not None else np.max(res.shock))
            for res in results]


def _solve_table(net: FinancialNetwork, report: SolveReport) -> tuple:
    return "solve", ("bank_id", "book_equity", "equity", "defaulted", "iterations"), (
        (net.bank_ids, None), _floats(net.book_equity()), _floats(report.solution),
        _labels((report.solution < 0).tolist()), _repeat([report.iterations], net.n),
    ), {"converged": report.converged, "residual": report.residual,
        "kind_of_solution": report.kind, "warnings": list(report.warnings)}


def _stress_table(net: FinancialNetwork, results) -> tuple:
    """Rows sorted by alpha, then bank id, then point (a stable sort of the
    point-major rows): one index permutation of the (point, bank) pairs."""
    n = net.n
    alphas = _alphas(results)
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=net.bank_ids.__getitem__)] = np.arange(n)
    order = np.lexsort((np.tile(rank, len(results)), np.repeat(alphas, n)))
    points, banks = np.divmod(order, n)
    return "stress", ("alpha", "bank_id", "delta_equity", "network_effect"), (
        (alphas, points), (net.bank_ids, banks),
        _floats([res.delta_equity for res in results], order),
        ([res.network_effect for res in results], points),
    ), {"converged": all(res.report.converged for res in results)}


def _curve_table(net: FinancialNetwork, table: CurveTable) -> tuple:
    families, equities, values = zip(*table.rows) if table.rows else ((), (), ())
    return "curve", ("family", "equity", "value"), (
        _labels(families), _floats(equities), _floats(values)), {}


def _limit_table(net: FinancialNetwork, series: LimitSeries) -> tuple:
    n, points = net.n, len(series.parameters)
    return "limit", ("parameter", "bank_id", "equity", "deviation"), (
        _repeat(series.parameters, n), (net.bank_ids, np.tile(np.arange(n), points)),
        _floats(series.equities), _repeat(series.deviations, n),
    ), {"parameter_name": series.parameter_name, "partial": series.partial,
        "reference": series.reference.tolist(), "notes": list(series.notes)}


def _mc_table(net: FinancialNetwork, result: MonteCarloResult) -> tuple:
    return "mc_global", ("bank_id", "mean_equity", "std_error", "samples", "dropped"), (
        (net.bank_ids, None), _floats(result.mean), _floats(result.std_error),
        _repeat([result.samples], net.n), _repeat([result.dropped], net.n),
    ), {"seed": result.seed, "valid": result.valid}


def _discount_table(net: FinancialNetwork, results) -> tuple:
    """A point's rows are the network's claims, creditor-major, as its ``edges``."""
    claims, points = len(net.amounts), len(results)
    merton = np.concatenate([res.merton for res in results])
    # a point that did not converge has no network discounts: empty cells
    solved = [res for res in results if res.network is not None]
    network = np.concatenate([np.empty(0)] + [res.network for res in solved])
    difference = np.concatenate([np.empty(0)] + [res.difference for res in solved])
    rows = np.repeat([res.network is not None for res in results], claims)
    index = np.where(rows, np.cumsum(rows) - 1, -1)
    return "discount", ("alpha", "lender", "borrower", "merton_discount",
                        "network_discount", "difference"), (
        _repeat(_alphas(results), claims), (net.bank_ids, np.tile(net.creditors, points)),
        (net.bank_ids, np.tile(net.debtors, points)), _floats(merton), _floats(network, index),
        _floats(difference, index),
    ), {"converged": all(res.converged for res in results)}


# Result type -> its table; (type,) for a list of that type.
_TABLES = {SolveReport: _solve_table, (StressResult,): _stress_table,
           CurveTable: _curve_table, LimitSeries: _limit_table,
           MonteCarloResult: _mc_table, (DiscountComparison,): _discount_table}


def render_results(result, fmt: str = "csv",
                   net: Optional[FinancialNetwork] = None) -> Iterator[str]:
    """Render a result object as CSV or JSON text, in pieces of ``BLOCK_ROWS`` rows
    made as they are consumed; the arguments are checked before the first piece.

    CSV columns are fixed per result kind (see README); JSON mirrors the
    same rows.  Both render from one set of columns.  CSV prints floats with
    17 significant digits, JSON as ``json.dumps``'s shortest round-trip text;
    parsing either recovers them exactly.
    """
    if fmt not in ("csv", "json"):
        raise FileFormatError(f"unknown output format {fmt!r}")
    key = (type(result[0]),) if isinstance(result, (list, tuple)) and result else type(result)
    if key not in _TABLES:
        raise FileFormatError(f"cannot serialize {type(result).__name__}")
    if net is None and key is not CurveTable:  # the other tables read the bank ids
        kind = key[0] if isinstance(key, tuple) else key
        raise FileFormatError(f"cannot serialize {kind.__name__} without its network")
    return _render(*_TABLES[key](net, result), fmt)


def serialize_results(result, fmt: str = "csv",
                      net: Optional[FinancialNetwork] = None) -> str:
    """The whole text of ``render_results``."""
    return "".join(render_results(result, fmt, net))


def _render(kind: str, header, columns, extra: dict, fmt: str) -> Iterator[str]:
    """The text of a result table: a head, blocks of ``BLOCK_ROWS`` rows and a tail, so
    that neither the whole text nor a string per cell is held.  Its JSON is that of
    ``json.dumps`` with ``indent=2``, the cells encoded column by column and spliced in."""
    csv_text, (values, index) = fmt == "csv", columns[0]
    count = len(values if index is None else index)
    columns = [_rendered(values, index, csv_text) for values, index in columns]
    head, row, separator, tail = ",".join(header), ",".join, "\n", "\n"
    if not csv_text:
        extra = {key: _json_safe(value) for key, value in extra.items()}
        head = json.dumps({"kind": kind, **extra, "rows": []}, indent=2)[:-3]  # less "]\n}"
        separator, tail = ",\n", "\n  ]\n}\n" if count else "]\n}\n"
        row = ("    {%s\n    }" % ",".join("\n      %s: %%s" % json.dumps(name).replace("%", "%%")
                                          for name in header)).__mod__
    yield head
    for start in range(0, count, BLOCK_ROWS):
        cells = [_cells(*column, slice(start, start + BLOCK_ROWS), csv_text) for column in columns]
        yield (separator if start else "\n") + separator.join(map(row, zip(*cells)))
    yield tail


def write_output(text: Iterable[str], path=None) -> None:
    """Write the text, or its pieces as they come, to stdout, or atomically to a file
    (write-then-rename) so a failed run, even one whose pieces raise part way, never
    leaves a partial file behind.  As with ``open(path, "w")``, a symlink's target is
    written, an existing file keeps its mode and a new one gets 0o666 less the umask."""
    pieces = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(pieces)
        return
    target, tmp = os.path.realpath(path), None
    try:
        name = os.path.join(os.path.dirname(target), f".neva-{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # set once created: a name that was taken is not ours to remove
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if os.path.exists(target):
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            handle.writelines(pieces)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the requested file, not the temporary one
            exc.filename, exc.filename2 = os.fspath(path), None
        raise
