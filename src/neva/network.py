"""Balance-sheet representation of an interbank financial system.

A :class:`FinancialNetwork` holds, for each bank, external assets and
liabilities plus the interbank liabilities as edge arrays (debtor,
creditor, amount).  Everything else the solver needs (book equities,
equity lower bounds, obligation and claim vectors, each bank's claims
summed at given weights, the dense liability matrix) is derived from these
fields.
"""
from __future__ import annotations

from functools import cached_property
from numbers import Real
from typing import Sequence, Union

import numpy as np

__all__ = [
    "EquityVector",
    "NetworkError",
    "FinancialNetwork",
]

# Per-bank equity values are plain float vectors, shape (n,).
EquityVector = np.ndarray


class NetworkError(ValueError):
    """Raised when balance-sheet data violates a structural invariant."""


def _is_number(value, kind) -> bool:
    """Whether ``value`` is a ``kind`` (``numbers.Real`` or ``Integral``,
    numpy scalars included) and not a boolean (numpy's are no ``Real``)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _invalid(amounts: np.ndarray) -> np.ndarray:
    """Mask of the amounts that are negative or not finite."""
    return ~np.isfinite(amounts) | (amounts < 0)


def _invalid_edges(n: int, debtors, creditors, amounts) -> np.ndarray:
    """Mask of the liability edges among ``n`` banks that name a bank index
    outside ``[0, n)``, are self-loans or have an invalid amount."""
    return ((debtors < 0) | (debtors >= n) | (creditors < 0) | (creditors >= n)
            | (debtors == creditors) | _invalid(amounts))


def _as_amount_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != (n,):
        raise NetworkError(f"{name} must have shape ({n},), got {arr.shape}")
    bad = _invalid(arr)
    if bad.any():
        k = int(np.argmax(bad))
        raise NetworkError(f"{name}[{k}] is negative or not finite ({arr[k]})")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Record:
    """Base of neva's immutable record types.

    A subclass's annotated names are its fields, in order, read once when the
    class is created; a class attribute of the same name is the field's
    default.  Instances take the fields by position or keyword, then run
    ``__post_init__``, and refuse assignment and deletion: a record's own
    methods write through ``vars(self)`` or ``object.__setattr__``.  The repr
    shows every field not named in the class keyword ``hidden``.  With the
    class keyword ``eq=True`` instances compare and hash as the tuple of their
    fields; otherwise by identity.
    """

    def __init_subclass__(cls, eq=False, hidden=()):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        if eq:
            cls.__eq__, cls.__hash__ = Record._equal, Record._hash

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        vars(self).update(zip(self._fields, args))
        self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order: ``args`` by position, then ``kwargs``
        by name, then the defaults; a missing, unknown or repeated one raises TypeError."""
        names, record = self._fields, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{record}() takes {len(names)} arguments, got {len(args)}")
        values = {**self._defaults, **kwargs, **dict(zip(names, args))}
        wrong = values.keys() ^ set(names) | kwargs.keys() & set(names[:len(args)])
        if wrong:
            raise TypeError(f"{record}() missing, unknown or repeated: {', '.join(sorted(wrong))}")
        return [values[name] for name in names]

    def __post_init__(self):
        """Check or normalize the fields; nothing by default."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._shown))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _equal(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def _hash(self) -> int:
        return hash(self._values())


class FinancialNetwork(Record):
    """Immutable snapshot of the banks' balance sheets.

    Parameters
    ----------
    bank_ids : sequence of str
        Unique identifiers; they fix the order of all per-bank vectors.
    external_assets : array_like, shape (n,)
        Nonnegative holdings outside the interbank system.
    external_liabilities : array_like, shape (n,)
        Nonnegative obligations owed outside the interbank system.
    interbank_liabilities : array_like, shape (n, n)
        Entry ``[i, j]`` is the amount bank ``i`` owes bank ``j``.  The
        diagonal must be zero.

    The positive liabilities are kept as edges, and the matrix itself is not:
    bank ``debtors[k]`` owes bank ``creditors[k]`` the amount ``amounts[k]``,
    ordered by creditor, then debtor (as ``np.nonzero(interbank_liabilities.T)``).
    """

    bank_ids: tuple
    external_assets: np.ndarray
    external_liabilities: np.ndarray
    debtors: np.ndarray
    creditors: np.ndarray
    amounts: np.ndarray

    def __init__(self, bank_ids: Sequence[str], external_assets,
                 external_liabilities, interbank_liabilities):
        ids = tuple(str(b) for b in bank_ids)
        n = len(ids)
        liab = np.asarray(interbank_liabilities, dtype=float)
        if liab.shape != (n, n):
            raise NetworkError(
                f"interbank_liabilities must have shape ({n}, {n}), got {liab.shape}")
        debtors, creditors = np.nonzero(liab)
        self._fill(ids, external_assets, external_liabilities, debtors, creditors,
                   liab[debtors, creditors])

    @classmethod
    def _from_edges(cls, bank_ids, external_assets, external_liabilities,
                    debtors, creditors, amounts) -> tuple:
        """Network of the liability edges ``debtors[k] -> creditors[k]``, given
        as bank indices in ``[0, n)``, as ``_fill`` builds it, and its repeats."""
        net = cls.__new__(cls)
        return net, net._fill(bank_ids, external_assets, external_liabilities, debtors,
                              creditors, amounts)

    def _fill(self, bank_ids, external_assets, external_liabilities, debtors, creditors,
              amounts) -> np.ndarray:
        """Check the banks and edges and set the fields.  The first invalid
        edge in the order given is named, a bad amount before a self-loan.
        A repeated pair's amounts are summed in the given order, zero sums
        dropped, and the edges and creditor runs stored lender-major, from one
        sort that also finds the positions it returns: edges repeating a pair."""
        ids = tuple(str(b) for b in bank_ids)
        n = len(ids)
        bad = _invalid_edges(n, debtors, creditors, amounts)
        if bad.any():
            k = int(np.argmax(bad))
            i, j = ids[debtors[k]], ids[creditors[k]]
            if _invalid(amounts[k]):
                raise NetworkError(f"interbank_liabilities[{i} -> {j}] is "
                                   f"negative or not finite ({amounts[k]})")
            raise NetworkError(f"self-loan on the diagonal for bank {i}")
        if not ids:
            raise NetworkError("network needs at least one bank")
        if len(set(ids)) != len(ids):
            raise NetworkError("bank ids are not unique")
        pairs, first, position = np.unique(np.asarray(creditors, dtype=np.intp) * n
                                           + debtors, return_index=True, return_inverse=True)
        sums = np.bincount(position, amounts, len(pairs))
        held = sums > 0
        creditors, debtors = np.divmod(pairs[held], n)
        amounts = sums[held]
        starts = np.flatnonzero(np.diff(creditors, prepend=-1))  # a creditor's first edge
        arrays = {
            "external_assets": _as_amount_vector(external_assets, n, "external_assets"),
            "external_liabilities": _as_amount_vector(external_liabilities, n,
                                                      "external_liabilities"),
            "debtors": debtors, "creditors": creditors, "amounts": amounts,
            "_obligations": np.bincount(debtors, amounts, n),
            "_claim_holders": creditors[starts], "_claim_starts": starts}
        vars(self).update(  # frozen: fill the fields directly
            {name: _read_only(arr) for name, arr in arrays.items()}, bank_ids=ids)
        # on the edge form, claim totals are the sweeps' sums at unit weights
        claims = (self._edge_claim_sums(np.ones(n)) if self._sparse
                  else np.bincount(creditors, amounts, n))
        vars(self)["_claims"] = _read_only(claims)
        # claims or obligations that overflow to inf leave a bound non-finite too
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~(np.isfinite(self.book_equity()) & np.isfinite(self.equity_lower_bound()))
        if bad.any():
            raise NetworkError(f"bank {ids[np.argmax(bad)]}: claims, obligations or "
                               "equity bounds overflow the float range")
        return np.flatnonzero(first[position] != np.arange(len(position)))

    def __setstate__(self, state: dict) -> None:
        """Unpickle with every array read-only: pickle protocols before 5 copy them writeable."""
        vars(self).update({name: _read_only(value) if isinstance(value, np.ndarray) else value
                           for name, value in state.items()})

    @property
    def n(self) -> int:
        return len(self.bank_ids)

    @cached_property
    def interbank_liabilities(self) -> np.ndarray:
        """Dense liability matrix: entry ``[i, j]`` is the amount bank i owes
        bank j.  Built from the edges on first read, O(n²) memory."""
        dense = np.zeros((self.n, self.n))
        dense[self.debtors, self.creditors] = self.amounts
        return _read_only(dense)

    def claim_sums(self, weights: np.ndarray) -> np.ndarray:
        """``weights @ interbank_liabilities``, row by row: each bank's claims,
        each at the weight of its debtor, summed.  A sparse network (mean
        degree at most n/40) sums over its edges, in O(rows x edges) without
        the dense view; a denser one takes the BLAS product over that view."""
        if self._sparse:
            return self._edge_claim_sums(weights)
        return weights @ self.interbank_liabilities

    @cached_property
    def _sparse(self) -> bool:
        """Density at most 1/40: edges won at 2.0%, tied at 3.3%, lost 3.4x at 20%."""
        return len(self.amounts) * 40 <= self.n * self.n

    def _edge_claim_sums(self, weights) -> np.ndarray:
        """``claim_sums`` over the edges: the weighted amounts of each
        creditor's run of edges, summed by ``np.add.reduceat``; exactly 0 for
        a bank holding no claim."""
        shape = np.shape(weights)[:-1] + (self.n,)
        if not len(self.amounts):
            return np.zeros(shape)
        terms = np.asarray(weights, dtype=float).take(self.debtors, axis=-1)
        terms *= self.amounts
        holders, starts = self._claim_holders, self._claim_starts
        sums = np.add.reduceat(terms, starts, axis=-1)
        if len(holders) == self.n:
            return sums
        scattered = np.zeros(shape)
        scattered[..., holders] = sums
        return scattered

    def index_of(self, bank_id: str) -> int:
        try:
            return self.bank_ids.index(bank_id)
        except ValueError:
            raise NetworkError(f"unknown bank id {bank_id!r}") from None

    def book_equity(self) -> EquityVector:
        """Assets minus liabilities at face value; the lattice upper bound."""
        return (self.external_assets - self.external_liabilities + self._claims
                - self._obligations)

    def equity_lower_bound(self) -> EquityVector:
        """Equity when every asset is worthless: minus all liabilities."""
        return -(self.external_liabilities + self._obligations)

    def total_obligations(self) -> np.ndarray:
        """Total interbank liability each bank has to settle (read-only)."""
        return self._obligations

    def total_claims(self) -> np.ndarray:
        """Total interbank claim each bank holds (read-only)."""
        return self._claims

    def shock_vector(self, relative_shock: Union[float, Sequence[float]]) -> np.ndarray:
        """Per-bank fractions in [0, 1] of a uniform or per-bank relative shock."""
        shock = np.asarray(relative_shock, dtype=object)
        if not all(_is_number(value, Real) for value in shock.flat):
            raise NetworkError(f"shock fractions must be numbers, got {relative_shock!r}")
        shock = shock.astype(float)
        if shock.ndim == 0:
            shock = np.full(self.n, float(shock))
        if shock.shape != (self.n,):
            raise NetworkError(
                f"shock must be a scalar or have shape ({self.n},), got {shock.shape}")
        if not np.all(np.isfinite(shock)) or np.any(shock < 0) or np.any(shock > 1):
            raise NetworkError("shock fractions must lie in [0, 1]")
        return shock

    def apply_shock(self, relative_shock: Union[float, Sequence[float]]) -> "FinancialNetwork":
        """Devalue external assets by a relative fraction in [0, 1].

        Accepts a single fraction applied uniformly or a per-bank vector.
        Returns a new network sharing this one's edges; the original is
        untouched.
        """
        assets = (1.0 - self.shock_vector(relative_shock)) * self.external_assets
        shocked = FinancialNetwork.__new__(FinancialNetwork)
        vars(shocked).update(vars(self), external_assets=_read_only(assets))
        return shocked

    def transpose(self) -> "FinancialNetwork":
        """Network with every liability edge reversed."""
        return FinancialNetwork._from_edges(
            self.bank_ids, self.external_assets, self.external_liabilities,
            self.creditors, self.debtors, self.amounts)[0]

    def __repr__(self) -> str:  # keep reprs short for n of realistic size
        return f"FinancialNetwork(n={self.n}, edges={len(self.amounts)})"

