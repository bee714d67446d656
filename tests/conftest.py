"""Shared fixtures: reference networks, random generators, and the
independent numerical oracles used to check closed forms and solves."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from neva import FinancialNetwork

try:
    from hypothesis import settings
except ImportError:  # an optional test dependency; its tests skip without it
    pass
else:
    # Reproducible and bounded property runs: a fixed example sequence, and no
    # per-example deadline, because identical solves vary many-fold in time on
    # a shared machine.
    settings.register_profile("neva", derandomize=True, deadline=None,
                              max_examples=25)
    # the exact-oracle properties at depth: --hypothesis-profile neva-deep
    settings.register_profile("neva-deep", derandomize=True, deadline=None,
                              max_examples=300)
    settings.load_profile("neva")


def ring_network() -> FinancialNetwork:
    """Three-bank ring (claims A->B->C->A), book equity one per bank,
    leverages 10.5 / 5.5 / 3.5."""
    liabilities = np.zeros((3, 3))
    liabilities[0, 2] = 0.5  # A owes C
    liabilities[1, 0] = 0.5  # B owes A
    liabilities[2, 1] = 0.5  # C owes B
    return FinancialNetwork(["A", "B", "C"], [10.0, 5.0, 3.0], [9.0, 4.0, 2.0],
                            liabilities)


def open_chain_network() -> FinancialNetwork:
    """Claims A->B->C, unit external assets, no external liabilities."""
    liabilities = np.zeros((3, 3))
    liabilities[1, 0] = 1.2  # B owes A
    liabilities[2, 1] = 1.2  # C owes B
    return FinancialNetwork(["A", "B", "C"], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                            liabilities)


def tree_network() -> FinancialNetwork:
    """Claims A->B and A->C."""
    liabilities = np.zeros((3, 3))
    liabilities[1, 0] = 1.0  # B owes A
    liabilities[2, 0] = 1.0  # C owes A
    return FinancialNetwork(["A", "B", "C"], [1.0, 0.1, 1.0], [0.0, 0.0, 0.0],
                            liabilities)


def closed_chain_network() -> FinancialNetwork:
    """Claims A->B->C->A with asymmetric weights."""
    liabilities = np.zeros((3, 3))
    liabilities[0, 2] = 1.5  # A owes C
    liabilities[1, 0] = 1.1  # B owes A
    liabilities[2, 1] = 1.2  # C owes B
    return FinancialNetwork(["A", "B", "C"], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                            liabilities)


@pytest.fixture
def ring():
    return ring_network()


@pytest.fixture
def open_chain():
    return open_chain_network()


@pytest.fixture
def tree():
    return tree_network()


@pytest.fixture
def closed_chain():
    return closed_chain_network()


def random_network(rng: np.random.Generator, max_banks: int = 10,
                   nonnegative_cashflow: bool = True) -> FinancialNetwork:
    """Random sparse network; by default external liabilities are kept below
    external assets (nonnegative operating cashflow)."""
    n = int(rng.integers(2, max_banks + 1))
    scale = rng.uniform(0.5, 2.0)
    assets = rng.uniform(0.5, 3.0, n) * scale
    if nonnegative_cashflow:
        liabilities_ext = assets * rng.uniform(0.0, 1.0, n)
    else:
        liabilities_ext = rng.uniform(0.0, 4.0, n) * scale
    liabilities = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(liabilities, 0.0)
    ids = [f"B{k}" for k in range(n)]
    return FinancialNetwork(ids, assets, liabilities_ext, liabilities)


def rescaled(net: FinancialNetwork, unit: float) -> FinancialNetwork:
    """``net`` with every amount times ``unit``: a change of unit when
    ``unit`` is a power of two."""
    return FinancialNetwork(net.bank_ids, unit * net.external_assets,
                            unit * net.external_liabilities,
                            unit * net.interbank_liabilities)


def random_dag_network(rng: np.random.Generator,
                       max_banks: int = 10) -> FinancialNetwork:
    """Random acyclic claim graph: claims only flow towards earlier banks in
    a random permutation, so the liability matrix is acyclic by construction."""
    n = int(rng.integers(2, max_banks + 1))
    order = rng.permutation(n)
    claims = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                claims[order[a], order[b]] = rng.uniform(0.1, 1.5)
    assets = rng.uniform(0.2, 3.0, n)
    liabilities_ext = assets * rng.uniform(0.0, 1.0, n)
    ids = [f"B{k}" for k in range(n)]
    return FinancialNetwork(ids, assets, liabilities_ext, claims.T)


def claim_depth(net: FinancialNetwork):
    """Longest chain of claims in ``net``, or None when its claims form a
    cycle: the last power of the claim matrix that still holds an edge (a
    chain has at most n - 1 edges, so a cycle keeps the n-th power nonzero)."""
    claims = (net.interbank_liabilities.T > 0).astype(int)
    power, depth = claims, 0
    while power.any():
        depth += 1
        if depth >= net.n:
            return None
        power = (power @ claims > 0).astype(int)
    return depth

def infeasible_factors(bound, grid, tolerance: float = 1e-12) -> list:
    """The factors of ``bound`` (borrower, lender when the family has one,
    external) that leave ``[0, 1]`` or decrease by more than ``tolerance``
    along ``grid``, a sequence of equities ascending entry by entry: the
    paper's feasibility conditions on a valuation function."""
    faults = []
    for side in ("borrower", "lender", "external"):
        curve = [getattr(bound, f"{side}_factors")(equities) for equities in grid]
        if curve[0] is None:  # the family has no lender factor
            continue
        curve = np.array(curve)
        if not np.all((curve >= 0.0) & (curve <= 1.0)):
            faults.append(f"{bound.spec}: {side} factor outside [0, 1]")
        if np.any(np.diff(curve, axis=0) < -tolerance):
            faults.append(f"{bound.spec}: {side} factor decreases")
    return faults


def lattice_faults(spec, net: FinancialNetwork) -> list:
    """``infeasible_factors`` of ``spec`` bound to ``net`` along 201 equities
    per bank, from one below the lattice's lower bound to one above its top."""
    bound = spec.bind(net)
    grid = np.linspace(net.equity_lower_bound() - 1.0, bound.book_equity + 1.0, 201)
    return infeasible_factors(bound, grid)


def en_clearing_oracle(net: FinancialNetwork, tol: float = 1e-14,
                       max_iterations: int = 100_000) -> np.ndarray:
    """Independent clearing-payment fixed point, iterated in payment space:
    p <- min[(e + Pi^T p)^+, pbar] from p = pbar."""
    obligations = net.total_obligations()
    cashflow = net.external_assets - net.external_liabilities
    shares = np.divide(net.interbank_liabilities,
                       obligations[:, None],
                       out=np.zeros_like(net.interbank_liabilities),
                       where=obligations[:, None] > 0)
    payments = obligations.copy()
    for _ in range(max_iterations):
        inflow = shares.T @ payments
        updated = np.minimum(np.maximum(cashflow + inflow, 0.0), obligations)
        if np.max(np.abs(updated - payments)) <= tol:
            return updated
        payments = updated
    return payments


def exact_greatest(net: FinancialNetwork, spec) -> list:
    """The greatest equities of ``net`` as Fractions, under a spec whose claim factors
    are piecewise linear in the borrower's equity: ``eisenberg_noe`` and
    ``eisenberg_noe_haircut`` (pro rata), ``rogers_veraart`` (pro rata, and a bank read
    as defaulted values its external assets at ``alpha`` and its claims at ``beta``),
    ``furfine`` (constant within a regime) and ``linear_debtrank`` (linear between 0 and
    the book equity).  Each bank's regime is read off a greatest solve at 1e-15 of the
    scale, and the linear block's system is solved exactly.  Raises ValueError when that
    system is singular or its solution leaves the regime it was read from; there is no
    fallback."""
    from neva import SolveConfig, greatest_solution
    from neva.solver import _scaled_epsilon
    kind = spec.interbank_kind
    if kind not in ("eisenberg_noe", "eisenberg_noe_haircut", "rogers_veraart", "furfine",
                    "linear_debtrank"):
        raise ValueError(f"no exact oracle for {kind}")
    # the borrower's haircut; rogers_veraart's beta is the defaulted lender's
    beta = Fraction(1 if spec.beta is None or kind == "rogers_veraart" else spec.beta)
    tight = float(_scaled_epsilon(net.book_equity(), net.total_obligations(), 1e-15))
    guide = greatest_solution(net, spec, SolveConfig(epsilon=tight,
                                                     max_iterations=10**6)).solution
    edges = [(int(d), int(c), Fraction(float(a)))
             for d, c, a in zip(net.debtors, net.creditors, net.amounts)]
    owed = [Fraction(0)] * net.n
    for debtor, _, amount in edges:
        owed[debtor] += amount
    base = [Fraction(float(a)) - Fraction(float(l)) - p for a, l, p in
            zip(net.external_assets, net.external_liabilities, owed)]
    book = list(base)
    for _, creditor, amount in edges:
        book[creditor] += amount
    # per bank, its lender factor, and its external assets at their factor in the base
    lender = [Fraction(1)] * net.n
    if kind == "rogers_veraart":
        for j, g in enumerate(guide.tolist()):
            if g < 0:  # defaulted: claims at beta, external assets at alpha
                lender[j] = Fraction(spec.beta)
                base[j] -= (1 - Fraction(spec.alpha)) * Fraction(float(net.external_assets[j]))
    # per borrower, a claim on it is worth its face value times a constant share plus,
    # in the linear block, a slope times y = E / unit: (unit, share, slope, regime test)
    regimes, face = [], net.book_equity().tolist()
    for j, g in enumerate(guide.tolist()):
        if kind == "furfine":
            solvent = g >= 0
            regimes.append((None, Fraction(1) if solvent else Fraction(spec.recovery), 0,
                            lambda e, solvent=solvent: (e >= 0) == solvent))
        elif kind == "linear_debtrank":
            if book[j] <= 0 or g <= 0:  # worthless: max(E, 0) / book is 0
                regimes.append((None, Fraction(0), 0, lambda e, j=j: book[j] <= 0 or e <= 0))
            elif g >= face[j]:  # at face value
                regimes.append((None, Fraction(1), 0, lambda e, j=j: e >= book[j]))
            else:
                regimes.append((book[j], Fraction(0), Fraction(1),
                                lambda e, j=j: 0 <= e <= book[j]))
        elif owed[j] and -owed[j] < g < 0:  # pays in part: beta * (1 + y) of face value
            regimes.append((owed[j], beta, beta, lambda e, j=j: -owed[j] <= e <= 0
                            and (beta == 1 or e < 0)))  # below 0 where the haircut jumps
        else:
            solvent = g >= 0 or not owed[j]
            regimes.append((None, Fraction(int(solvent)), 0, lambda e, solvent=solvent, j=j:
                            e >= 0 if solvent else e <= -owed[j]))
    # the linear block's rows in y, dyadic, are scaled to integers and eliminated
    # without fractions (column m holds the right side)
    part = [j for j in range(net.n) if regimes[j][0] is not None]
    index, m = {j: k for k, j in enumerate(part)}, len(part)
    rows = [{k: regimes[j][0], m: base[j]} for k, j in enumerate(part)]
    equities = list(base)
    for debtor, creditor, amount in edges:
        amount *= lender[creditor]
        value = amount * regimes[debtor][1]
        equities[creditor] += value
        if creditor in index:
            row = rows[index[creditor]]
            row[m] += value
            if debtor in index:
                row[index[debtor]] = row.get(index[debtor], 0) - amount * regimes[debtor][2]
    rows = [{col: int(value * max(v.denominator for v in row.values()))
             for col, value in row.items()} for row in rows]
    for k in range(m):  # pivots on the diagonal
        pivot = rows[k].get(k, 0)
        if not pivot:
            raise ValueError(f"singular part-paying block at bank {part[k]}")
        for row in rows[k + 1:]:
            factor = row.pop(k, 0)
            if factor:
                for col in row:
                    row[col] *= pivot
                for col, value in rows[k].items():
                    if col != k:
                        row[col] = row.get(col, 0) - factor * value
                common = math.gcd(*row.values()) or 1
                for col in row:
                    row[col] //= common
    solved = [Fraction(0)] * m
    for k in reversed(range(m)):
        solved[k] = Fraction(rows[k][m] - sum(value * solved[col] for col, value
                                              in rows[k].items() if k < col < m), rows[k][k])
    for debtor, creditor, amount in edges:
        if debtor in index:
            equities[creditor] += (lender[creditor] * amount * regimes[debtor][2]
                                   * solved[index[debtor]])
    for j, g in enumerate(guide.tolist()):
        if (owed[j] and not regimes[j][3](equities[j])
                or kind == "rogers_veraart" and (equities[j] >= 0) != (g >= 0)):
            raise ValueError(f"bank {j} leaves the regime read for it")
    return equities


def lognormal_move_pdf(x: float, assets: float, sigma: float, tau: float) -> float:
    """Density of the terminal-minus-initial external assets under the
    zero-drift log-normal law (support x > -assets)."""
    if x <= -assets:
        return 0.0
    u = 1.0 + x / assets
    return (math.exp(-(math.log(u) + 0.5 * sigma * sigma * tau) ** 2
                     / (2.0 * sigma * sigma * tau))
            / (math.sqrt(2.0 * math.pi * tau) * sigma * (x + assets)))


def _quad(fn, lo, hi, assets, sigma, tau):
    mode = assets * (math.exp(-1.5 * sigma * sigma * tau) - 1.0)
    points = [p for p in (mode, 0.0) if lo < p < hi]
    value, _ = integrate.quad(fn, lo, hi, points=points or None, limit=400,
                              epsabs=1e-13, epsrel=1e-13)
    return value


def gbm_default_probability_quadrature(equity, assets, sigma, tau) -> float:
    """Default probability by direct integration of the move density."""
    if equity >= assets:
        return 0.0
    return _quad(lambda x: lognormal_move_pdf(x, assets, sigma, tau),
                 -assets, -equity, assets, sigma, tau)


def gbm_recovery_quadrature(equity, assets, sigma, tau, obligations) -> float:
    """Endogenous recovery by direct integration of the move density."""
    lo = max(-obligations - equity, -assets)
    hi = -equity
    if hi <= lo:
        return 0.0
    def integrand(x):
        return ((equity + x + obligations) / obligations
                * lognormal_move_pdf(x, assets, sigma, tau))
    return _quad(integrand, lo, hi, assets, sigma, tau)


def uniform_default_probability_quadrature(equity, book, obligations=None) -> float:
    lo, hi = -book, min(-equity, 0.0)
    if hi <= lo:
        return 0.0
    value, _ = integrate.quad(lambda x: 1.0 / book, lo, hi,
                              epsabs=1e-13, epsrel=1e-13)
    return value


def uniform_recovery_quadrature(equity, book, obligations) -> float:
    lo = max(-obligations - equity, -book)
    hi = min(-equity, 0.0)
    if hi <= lo:
        return 0.0
    value, _ = integrate.quad(
        lambda x: (equity + x + obligations) / obligations / book, lo, hi,
        epsabs=1e-13, epsrel=1e-13)
    return value
