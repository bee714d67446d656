"""Seeded input generator for the benchmark workloads.

Networks are random sparse claim graphs: every bank owes a Poisson(10)
number of distinct creditors, edge amounts are lognormal, external assets
are about three times the mean interbank claim book, and capital ratios lie
in 3-10%.  A handful of banks are insolvent before any shock and the whole
system defaults by a uniform external-asset shock of about 0.1.

The same seed gives byte-identical network and scenario JSON: every draw
comes from one ``numpy.random.Generator(PCG64(seed))`` in a fixed order and
the JSON is written with sorted keys and ``repr`` floats, which also makes
the arrays kept here bit-identical to what the program parses back.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MEAN_DEGREE = 10.0
ASSET_MULTIPLE = 3.0  # external assets / mean interbank claim book
CAPITAL_RATIO = (0.03, 0.10)


@dataclass(frozen=True, eq=False)
class Sheets:
    """Balance sheets plus the liability edge list (debtor -> creditor)."""

    external_assets: np.ndarray
    external_liabilities: np.ndarray
    debtors: np.ndarray
    creditors: np.ndarray
    amounts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.external_assets)

    @property
    def ids(self) -> list:
        return [f"b{k:05d}" for k in range(self.n)]

    def obligations(self) -> np.ndarray:
        return np.bincount(self.debtors, self.amounts, self.n)

    def book_equity(self) -> np.ndarray:
        claims = np.bincount(self.creditors, self.amounts, self.n)
        return (self.external_assets - self.external_liabilities + claims
                - self.obligations())

    def scale(self) -> float:
        """Largest book equity in absolute value, at least 1; the solver's
        default tolerance is 1e-10 times this."""
        return max(1.0, float(np.max(np.abs(self.book_equity()))))

    def claim_matrix(self, weights=None):
        """Sparse matrix with entry [creditor, debtor] = weight (default:
        the liability amount), so ``claim_matrix() @ x`` sums over claims."""
        from scipy import sparse
        weights = self.amounts if weights is None else weights
        return sparse.csr_matrix((weights, (self.creditors, self.debtors)),
                                 shape=(self.n, self.n))

    def dense_liabilities(self) -> np.ndarray:
        liabilities = np.zeros((self.n, self.n))
        liabilities[self.debtors, self.creditors] = self.amounts
        return liabilities

    def document(self) -> dict:
        ids = self.ids
        return {
            "banks": [{"id": ids[k], "external_assets": float(self.external_assets[k]),
                       "external_liabilities": float(self.external_liabilities[k])}
                      for k in range(self.n)],
            "liabilities": [{"debtor": ids[i], "creditor": ids[j], "amount": float(a)}
                            for i, j, a in zip(self.debtors.tolist(),
                                               self.creditors.tolist(),
                                               self.amounts.tolist())],
        }


def random_network(n: int, seed) -> Sheets:
    """Random network of n banks; ``seed`` is anything ``PCG64`` accepts."""
    rng = np.random.Generator(np.random.PCG64(seed))
    debtors, creditors, amounts = [], [], []
    for debtor in range(n):
        degree = min(int(rng.poisson(MEAN_DEGREE)), n - 1)
        others = np.sort(rng.choice(n - 1, size=degree, replace=False))
        debtors.append(np.full(degree, debtor))
        creditors.append(others + (others >= debtor))  # skip the self-loan
        amounts.append(rng.lognormal(0.0, 1.0, degree))
    debtors = np.concatenate(debtors)
    creditors = np.concatenate(creditors)
    amounts = np.concatenate(amounts)
    claims = np.bincount(creditors, amounts, n)
    obligations = np.bincount(debtors, amounts, n)
    external_assets = (ASSET_MULTIPLE * claims.mean()
                       * rng.lognormal(-0.125, 0.5, n))
    capital = rng.uniform(*CAPITAL_RATIO, n)
    external_liabilities = np.maximum(
        (1.0 - capital) * (external_assets + claims) - obligations, 0.0)
    return Sheets(external_assets, external_liabilities, debtors, creditors,
                  amounts)


def stress_scenario(points: int, top: float) -> dict:
    return {"scenario": {"kind": "stress",
                         "alpha_grid": {"min": 0.0, "max": top, "points": points}},
            "valuation": {"interbank": {"kind": "eisenberg_noe"}}}


def limit_maturity_scenario(sigma: float, beta: float, taus) -> dict:
    return {"scenario": {"kind": "limit_maturity", "sigma": sigma, "beta": beta,
                         "tau_sequence": [float(t) for t in taus]}}


def mc_global_scenario(sigma: float, tau: float, beta: float, samples: int,
                       seed: int) -> dict:
    return {"scenario": {"kind": "mc_global", "sigma": sigma, "tau": tau,
                         "beta": beta, "samples": samples, "seed": seed}}


def dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
