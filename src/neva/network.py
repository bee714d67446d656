"""Balance-sheet representation of an interbank financial system.

A :class:`FinancialNetwork` holds, for each bank, external assets and
liabilities plus the matrix of interbank liabilities.  Everything else the
solver needs (book equities, equity lower bounds, obligation vector, claim
topology) is derived from these fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "EquityVector",
    "NetworkError",
    "FinancialNetwork",
    "TopologyInfo",
    "topology",
]

# Per-bank equity values are plain float vectors, shape (n,).
EquityVector = np.ndarray


class NetworkError(ValueError):
    """Raised when balance-sheet data violates a structural invariant."""


def _as_amount_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise NetworkError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NetworkError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        bad = int(np.argmin(arr))
        raise NetworkError(f"{name}[{bad}] is negative ({arr[bad]})")
    return arr


@dataclass(frozen=True, eq=False)
class TopologyInfo:
    """Cycle structure of the interbank claim graph.

    ``dag_depth`` is the maximum distance of any bank from the set of source
    banks (banks holding no interbank claims), defined only when the claim
    graph is acyclic.
    """

    is_dag: bool
    dag_depth: Optional[int] = None


@dataclass(frozen=True, eq=False)
class FinancialNetwork:
    """Immutable snapshot of the banks' balance sheets.

    Parameters
    ----------
    bank_ids : sequence of str
        Unique identifiers; they fix the row/column order of all matrices.
    external_assets : array_like, shape (n,)
        Nonnegative holdings outside the interbank system.
    external_liabilities : array_like, shape (n,)
        Nonnegative obligations owed outside the interbank system.
    interbank_liabilities : array_like, shape (n, n)
        Entry ``[i, j]`` is the amount bank ``i`` owes bank ``j``.  The
        diagonal must be zero; interbank assets are the transpose.
    """

    bank_ids: tuple
    external_assets: np.ndarray
    external_liabilities: np.ndarray
    interbank_liabilities: np.ndarray

    def __init__(self, bank_ids: Sequence[str], external_assets,
                 external_liabilities, interbank_liabilities):
        ids = tuple(str(b) for b in bank_ids)
        if not ids:
            raise NetworkError("network needs at least one bank")
        if len(set(ids)) != len(ids):
            raise NetworkError("bank ids are not unique")
        n = len(ids)
        ae = _as_amount_vector(external_assets, n, "external_assets")
        le = _as_amount_vector(external_liabilities, n, "external_liabilities")
        liab = np.asarray(interbank_liabilities, dtype=float)
        if liab.shape != (n, n):
            raise NetworkError(
                f"interbank_liabilities must have shape ({n}, {n}), got {liab.shape}")
        if not np.all(np.isfinite(liab)):
            raise NetworkError("interbank_liabilities contains non-finite entries")
        if np.any(liab < 0):
            i, j = np.unravel_index(int(np.argmin(liab)), liab.shape)
            raise NetworkError(
                f"interbank_liabilities[{ids[i]} -> {ids[j]}] is negative ({liab[i, j]})")
        if np.any(np.diagonal(liab) != 0):
            i = int(np.argmax(np.diagonal(liab) != 0))
            raise NetworkError(f"self-loan on the diagonal for bank {ids[i]}")
        for name, arr in (("bank_ids", ids), ("external_assets", ae.copy()),
                          ("external_liabilities", le.copy()),
                          ("interbank_liabilities", liab.copy())):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.bank_ids)

    @property
    def interbank_assets(self) -> np.ndarray:
        """Claim matrix: entry ``[i, j]`` is bank i's claim on bank j."""
        return self.interbank_liabilities.T

    def index_of(self, bank_id: str) -> int:
        try:
            return self.bank_ids.index(bank_id)
        except ValueError:
            raise NetworkError(f"unknown bank id {bank_id!r}") from None

    def book_equity(self) -> EquityVector:
        """Assets minus liabilities at face value; the lattice upper bound."""
        return (self.external_assets - self.external_liabilities
                + self.interbank_assets.sum(axis=1)
                - self.interbank_liabilities.sum(axis=1))

    def equity_lower_bound(self) -> EquityVector:
        """Equity when every asset is worthless: minus all liabilities."""
        return -(self.external_liabilities + self.interbank_liabilities.sum(axis=1))

    def total_obligations(self) -> np.ndarray:
        """Total interbank liability each bank has to settle."""
        return self.interbank_liabilities.sum(axis=1)

    def shock_vector(self, relative_shock: Union[float, Sequence[float]]) -> np.ndarray:
        """Per-bank fractions in [0, 1] of a uniform or per-bank relative shock."""
        shock = np.asarray(relative_shock, dtype=float)
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
        Returns a new network; the original is untouched.
        """
        return FinancialNetwork(
            self.bank_ids,
            (1.0 - self.shock_vector(relative_shock)) * self.external_assets,
            self.external_liabilities,
            self.interbank_liabilities,
        )

    def transpose(self) -> "FinancialNetwork":
        """Network with every liability edge reversed."""
        return FinancialNetwork(
            self.bank_ids,
            self.external_assets,
            self.external_liabilities,
            self.interbank_liabilities.T,
        )

    def __repr__(self) -> str:  # keep reprs short for n of realistic size
        return (f"FinancialNetwork(n={self.n}, "
                f"edges={int(np.count_nonzero(self.interbank_liabilities))})")


def topology(net: FinancialNetwork) -> TopologyInfo:
    """Classify the claim graph (edge i -> j when bank i holds a claim on j).

    When acyclic, ``dag_depth`` is the longest chain of claims hanging off
    any bank, computed by dynamic programming over a topological order of
    the claim graph; source banks (no claims held) have depth zero.
    """
    claims = net.interbank_assets > 0
    n = net.n
    out_lists = [np.nonzero(claims[i])[0] for i in range(n)]
    # Kahn's algorithm on claim edges i -> j.
    indegree = claims.sum(axis=0).astype(int)
    queue = [i for i in range(n) if indegree[i] == 0]
    order = []
    while queue:
        i = queue.pop()
        order.append(i)
        for j in out_lists[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    if len(order) != n:
        return TopologyInfo(is_dag=False, dag_depth=None)
    depth = np.zeros(n, dtype=int)
    # Reverse topological order: every claim target is settled before its holder.
    for i in reversed(order):
        if out_lists[i].size:
            depth[i] = 1 + max(depth[j] for j in out_lists[i])
    return TopologyInfo(is_dag=True, dag_depth=int(depth.max()))
