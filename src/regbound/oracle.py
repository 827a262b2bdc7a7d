"""Exact Castelnuovo-Mumford regularity via graded Koszul homology.

Tor_i(k, S/I)_j is computed as the homology of the Koszul complex on the
variables tensored with S/I, one graded strand at a time, with exact rank
computations over F_p. This is the ground truth the bounds are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .groebner import Ideal, MonomialIdeal, _reduce_terms
from .hilbert import InvariantError
from .ring import check_prime_size, order_key

REG_EMPTY = float("-inf")  # sentinel regularity of the zero module S/(1)

_TAYLOR_ENUM_LIMIT = 16


class OracleBudgetError(RuntimeError):
    """A strand matrix exceeded the configured size budget."""


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank over F_p by dense Gaussian elimination (int64 arithmetic, so p
    must be below PRIME_CAP)."""
    check_prime_size(p)
    if A.size == 0:
        return 0
    A = np.array(A, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        mask = A[r + 1 :, c] != 0
        if mask.any():
            A[r + 1 :][mask] = (
                A[r + 1 :][mask] - np.outer(A[r + 1 :, c][mask], A[r])
            ) % p
        r += 1
        if r == rows:
            break
    return r


def nullspace_mod_p(A: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the right nullspace over F_p (p below PRIME_CAP)."""
    check_prime_size(p)
    rows, cols = A.shape
    if cols == 0:
        return []
    R = np.array(A, dtype=np.int64) % p
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if R[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        inv = pow(int(R[r, c]), -1, p)
        R[r] = (R[r] * inv) % p
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for row, c in enumerate(pivots):
            v[c] = (-R[row, f]) % p
        basis.append(v)
    return basis


def finite_support_bases(alg: "QuotientAlgebra", cap: int) -> dict[int, list[np.ndarray]]:
    """Per-degree bases (coordinates in the standard monomial bases) of the
    quotient elements annihilated by every high power of the variables.

    An element has finite support exactly when each variable multiple does,
    so the bases are computed top-down: nothing survives above the cap, and
    in degree j the space is the kernel of multiplication into degree j+1
    taken modulo the degree-(j+1) space.
    """
    p = alg.ring.p
    n = alg.ring.n
    out: dict[int, list[np.ndarray]] = {}
    above: list[np.ndarray] = []  # torsion basis in degree j+1; empty above cap
    for j in range(cap, -1, -1):
        hf_j = alg.hf(j)
        hf_up = alg.hf(j + 1)
        if hf_j == 0:
            out[j] = []
            above = []
            continue
        if hf_up == 0:
            vecs = list(np.eye(hf_j, dtype=np.int64))
        else:
            if above:
                B = np.column_stack(above) % p
                rows = nullspace_mod_p(B.T, p)  # functionals vanishing on above
                P = (
                    np.vstack(rows)
                    if rows
                    else np.zeros((0, hf_up), dtype=np.int64)
                )
            else:
                P = np.eye(hf_up, dtype=np.int64)
            stacked = np.vstack([(P @ alg.mult_matrix(var, j)) % p for var in range(n)])
            vecs = nullspace_mod_p(stacked, p)
        out[j] = vecs
        above = vecs
    return out


def taylor_cap(M: MonomialIdeal) -> int:
    """Upper bound for reg(S/M) from the Taylor complex of a monomial ideal:
    max over generator subsets T of deg lcm(T) - |T|."""
    gens = M.gens
    if not gens or M.is_unit:
        return 0
    if len(gens) > _TAYLOR_ENUM_LIMIT:
        total = tuple(max(g[i] for g in gens) for i in range(M.n))
        return max(0, sum(total) - 1)
    best = 0
    stack = [(0, None, 0)]
    while stack:
        idx, lcm, size = stack.pop()
        if idx == len(gens):
            if size:
                best = max(best, sum(lcm) - size)
            continue
        stack.append((idx + 1, lcm, size))
        g = gens[idx]
        new = g if lcm is None else tuple(max(a, b) for a, b in zip(lcm, g))
        stack.append((idx + 1, new, size + 1))
    return max(best, 0)


class QuotientAlgebra:
    """Graded vector-space model of S/I: standard monomial bases per degree
    plus the multiplication-by-variable matrices between them."""

    def __init__(self, I: Ideal, order="degrevlex", max_dim: int | None = None):
        self.ring = I.ring
        self.order = order
        self.key = order_key(order)
        self.gb = I.groebner_basis(order)
        self.initial = I.initial_ideal(order)
        self.is_monomial = all(len(g.terms) == 1 for g in self.gb)
        self.max_dim = max_dim
        self._std: dict[int, list] = {}
        self._index: dict[int, dict] = {}
        self._mult: dict[tuple[int, int], np.ndarray] = {}
        self._basis_raw = [g.terms for g in self.gb]
        self._lts = [g.leading_monomial(order) for g in self.gb]

    def std(self, m: int) -> list:
        if m < 0:
            return []
        if m not in self._std:
            monos = [
                mono
                for mono in self.ring.monomials_of_degree(m)
                if not self.initial.contains_monomial(mono)
            ]
            self._std[m] = monos
            self._index[m] = {mono: i for i, mono in enumerate(monos)}
        return self._std[m]

    def hf(self, m: int) -> int:
        return len(self.std(m))

    def mult_matrix(self, var: int, m: int) -> np.ndarray:
        """Matrix of multiplication by x_{var} from degree m to degree m+1,
        in the standard monomial bases."""
        cache_key = (var, m)
        if cache_key in self._mult:
            return self._mult[cache_key]
        src = self.std(m)
        dst_index = self._index_for(m + 1)
        A = np.zeros((len(dst_index), len(src)), dtype=np.int64)
        p = self.ring.p
        for col, mono in enumerate(src):
            shifted = tuple(
                e + 1 if i == var else e for i, e in enumerate(mono)
            )
            if self.is_monomial:
                row = dst_index.get(shifted)
                if row is not None:
                    A[row, col] = 1
                continue
            if shifted in dst_index:
                A[dst_index[shifted], col] = 1
                continue
            nf = _reduce_terms({shifted: 1}, self._basis_raw, self._lts, self.key, p)
            for mono2, c in nf.items():
                A[dst_index[mono2], col] = c
        self._mult[cache_key] = A
        return A

    def _index_for(self, m: int) -> dict:
        self.std(m)
        return self._index[m]

    def strand_rank(self, i: int, j: int) -> int:
        """Rank of the Koszul differential from homological degree i into i-1,
        restricted to internal degree j."""
        n = self.ring.n
        if i < 1 or i > n:
            return 0
        s = j - i
        src = self.std(s)
        dst = self.std(s + 1)
        if not src or not dst:
            return 0
        subsets = list(combinations(range(n), i))
        prior = list(combinations(range(n), i - 1))
        prior_index = {T: k for k, T in enumerate(prior)}
        rows = len(prior) * len(dst)
        cols = len(subsets) * len(src)
        if self.max_dim is not None and max(rows, cols) > self.max_dim:
            raise OracleBudgetError(
                f"strand ({i}, {j}) needs a {rows} x {cols} matrix"
            )
        A = np.zeros((rows, cols), dtype=np.int64)
        p = self.ring.p
        h0, h1 = len(src), len(dst)
        for tcol, T in enumerate(subsets):
            for pos, var in enumerate(T):
                Tp = T[:pos] + T[pos + 1 :]
                trow = prior_index[Tp]
                block = self.mult_matrix(var, s)
                if pos % 2:
                    block = (-block) % p
                A[trow * h1 : (trow + 1) * h1, tcol * h0 : (tcol + 1) * h0] = block
        return rank_mod_p(A, p)


@dataclass
class BettiTable:
    """Graded Betti numbers dim Tor_i(k, S/I)_j for j - i up to the cap."""

    nvars: int
    cap: int
    entries: dict = field(default_factory=dict)

    def regularity(self) -> int:
        return max((j - i for (i, j), v in self.entries.items() if v), default=0)

    def euler_numerator(self) -> list[int]:
        """Coefficients of sum over i, j of (-1)^i * beta_{i,j} * t^j; equals the
        Hilbert series numerator over the full (1-t)^n."""
        if not self.entries:
            return [0]
        top = max(j for (_, j) in self.entries)
        out = [0] * (top + 1)
        for (i, j), v in self.entries.items():
            out[j] += v if i % 2 == 0 else -v
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def rows(self):
        """(i, [(j, value), ...]) pairs sorted for display."""
        by_i: dict[int, list] = {}
        for (i, j), v in sorted(self.entries.items()):
            by_i.setdefault(i, []).append((j, v))
        return sorted(by_i.items())


def _scan(alg: QuotientAlgebra, cap: int) -> BettiTable:
    n = alg.ring.n
    table = BettiTable(nvars=n, cap=cap)
    ranks: dict[tuple[int, int], int] = {}

    def rank_at(i, j):
        if (i, j) not in ranks:
            ranks[(i, j)] = alg.strand_rank(i, j)
        return ranks[(i, j)]

    for i in range(n + 1):
        for s in range(cap + 1):
            j = i + s
            dim_k = comb(n, i) * alg.hf(s)
            if dim_k == 0:
                continue
            t = dim_k - rank_at(i, j) - rank_at(i + 1, j)
            if t < 0:
                raise InvariantError(f"negative Betti number {t} at ({i}, {j})")
            if t:
                table.entries[(i, j)] = t
    return table


def betti_table(I: Ideal, max_dim: int | None = None, order="degrevlex") -> BettiTable:
    """Full graded Betti table of S/I, scanned up to the Taylor cap of the
    initial ideal (large enough to contain every nonzero entry)."""
    if I.is_unit:
        raise ValueError("the unit ideal has no Betti table")
    cache_key = ("betti", order, max_dim)
    if cache_key in I._cache:
        return I._cache[cache_key]
    cap = taylor_cap(I.initial_ideal(order))
    alg = QuotientAlgebra(I, order=order, max_dim=max_dim)
    table = _scan(alg, cap)
    I._cache[cache_key] = table
    return table


def koszul_strand(I: Ideal, i: int, j: int, order="degrevlex") -> int:
    """dim_k Tor_i(k, S/I)_j for a single strand."""
    n = I.ring.n
    if i < 0 or i > n or j < i:
        return 0
    alg = QuotientAlgebra(I, order=order)
    dim_k = comb(n, i) * alg.hf(j - i)
    if dim_k == 0:
        return 0
    return dim_k - alg.strand_rank(i, j) - alg.strand_rank(i + 1, j)


def regularity_exact(I: Ideal):
    """reg(S/I) = max{j - i : Tor_i(k, S/I)_j != 0}.

    The strand scan runs out to a Taylor bound on the initial ideal, which
    dominates reg(S/I); returns the REG_EMPTY sentinel for the unit ideal.
    """
    if I.is_unit:
        return REG_EMPTY
    if I.is_zero:
        return 0
    return betti_table(I).regularity()


def regularity_initial(I: Ideal, max_dim: int | None = None, order="degrevlex") -> int:
    """reg of the quotient by the initial ideal (an upper bound for reg(S/I))."""
    ini = I.initial_ideal(order)
    if ini.is_unit:
        raise ValueError("unit ideal")
    if ini.is_zero:
        return 0
    mono = Ideal(
        I.ring,
        [_monomial_poly(I.ring, m) for m in ini.gens],
    )
    return betti_table(mono, max_dim=max_dim).regularity()


def _monomial_poly(ring, mono):
    from .ring import Polynomial

    return Polynomial._raw(ring, {mono: 1})


def regularity_ideal(I: Ideal) -> int:
    """reg(I) = reg(S/I) + 1 for a proper nonzero ideal."""
    if I.is_zero:
        raise ValueError("the zero ideal has no regularity of this form")
    if I.is_unit:
        raise ValueError("the unit ideal is not a proper ideal")
    return regularity_exact(I) + 1
