"""Buchberger engine with ideal quotients, saturation and filter-regular tests.

Polynomials are manipulated as raw term dicts in the hot paths; the public
surface works with Polynomial / Ideal objects.
"""

from __future__ import annotations

import heapq
import re

from .ring import (
    DEFAULT_PRIME,
    DimensionMismatchError,
    PolyRing,
    Polynomial,
    degrevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    order_key,
    random_linear_form,
)


class GenericityError(RuntimeError):
    """Random choices failed to be generic; retry with another seed or larger p."""


class InternalLimitError(RuntimeError):
    """An internal iteration guard tripped; indicates a bug, not bad input."""


class IdealParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- raw term-dict reduction -------------------------------------------------

def _reduce_terms(f: dict, basis: list[dict], lts: list, key, p: int) -> dict:
    """Full normal form of term dict f against monic basis (leading terms lts)."""
    work = dict(f)
    remainder: dict = {}
    while work:
        lm = max(work, key=key)
        lc = work.pop(lm)
        for g, lt in zip(basis, lts):
            if mono_divides(lt, lm):
                q = mono_div(lm, lt)
                for m2, c2 in g.items():
                    if m2 == lt:
                        continue
                    mm = mono_mul(q, m2)
                    s = (work.get(mm, 0) - lc * c2) % p
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[lm] = lc
    return remainder


def _make_monic(f: dict, key, p: int) -> dict:
    lm = max(f, key=key)
    inv = pow(f[lm], -1, p)
    return {m: (c * inv) % p for m, c in f.items()}


def _spoly(f: dict, g: dict, ltf, ltg, p: int) -> dict:
    """S-polynomial of monic f, g with the given leading terms."""
    lcm = mono_lcm(ltf, ltg)
    qf = mono_div(lcm, ltf)
    qg = mono_div(lcm, ltg)
    out: dict = {}
    for m, c in f.items():
        out[mono_mul(qf, m)] = c
    for m, c in g.items():
        mm = mono_mul(qg, m)
        s = (out.get(mm, 0) - c) % p
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def _buchberger_raw(polys: list[dict], key, p: int) -> tuple[list[dict], list[int]]:
    """Reduced Groebner basis of the given term dicts, and the inputs it kept.

    Returns ``(basis, kept)``: the reduced basis as monic term dicts sorted by
    leading monomial, and the indices into ``polys`` of the inputs whose
    normal form was nonzero when they were taken, in the order taken.

    Pending S-pairs wait in a heap keyed by ``(deg lcm, key(lcm), i, j)``,
    computed once per pair: normal selection, smallest lcm first. Pairs are
    skipped by both classical criteria: coprime leading terms, and the chain
    criterion. Homogeneous input is taken degree by degree, sorted by
    ``(degree, key(leading monomial))``: an input of degree delta is reduced
    only once every pair of degree <= delta is done, when the basis is a
    Groebner basis of the inputs kept so far up to degree delta. An input is
    therefore kept exactly when it is not in the ideal of those kept before
    it, so the kept inputs are greedily chosen minimal generators.
    Inhomogeneous input is all taken before the first pair.
    """
    homogeneous = all(len({sum(m) for m in f}) == 1 for f in polys if f)
    inputs = []
    for idx, f in enumerate(polys):
        if f:
            lm = max(f, key=key)
            inputs.append((sum(lm) if homogeneous else -1, key(lm), idx))
    inputs.sort(reverse=True)  # taken from the end, smallest first
    basis: list[dict] = []
    lts: list = []
    kept: list[int] = []
    pairs: list = []  # heap of (deg lcm, key(lcm), i, j, lcm)
    done: set = set()
    while pairs or inputs:
        if inputs and (not pairs or inputs[-1][0] < pairs[0][0]):
            idx = inputs.pop()[2]
            r = _reduce_terms(polys[idx], basis, lts, key, p)
            if not r:
                continue
            kept.append(idx)
        else:
            _, _, i, j, lcm = heapq.heappop(pairs)
            done.add((i, j))
            if lcm == mono_mul(lts[i], lts[j]):
                continue  # coprime leading terms
            chain = False
            for k in range(len(basis)):
                if k in (i, j) or not mono_divides(lts[k], lcm):
                    continue
                ik = (min(i, k), max(i, k))
                jk = (min(j, k), max(j, k))
                if ik in done and jk in done:
                    chain = True
                    break
            if chain:
                continue
            r = _reduce_terms(_spoly(basis[i], basis[j], lts[i], lts[j], p), basis, lts, key, p)
            if not r:
                continue
        g = _make_monic(r, key, p)
        new = len(basis)
        basis.append(g)
        lts.append(max(g, key=key))
        for k in range(new):
            lcm = mono_lcm(lts[k], lts[new])
            heapq.heappush(pairs, (sum(lcm), key(lcm), k, new, lcm))

    # minimalize: drop elements whose leading term is divisible by another's
    order = sorted(range(len(basis)), key=lambda i: key(lts[i]))
    keep: list[int] = []
    for i in order:
        if not any(mono_divides(lts[k], lts[i]) for k in keep):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    min_lts = [lts[i] for i in keep]

    # interreduce tails
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1:]
            other_lts = min_lts[:i] + min_lts[i + 1:]
            r = _reduce_terms(minimal[i], others, other_lts, key, p)
            if r != minimal[i]:
                minimal[i] = _make_monic(r, key, p)
                changed = True
    minimal.sort(key=lambda g: key(max(g, key=key)))
    return minimal, kept


# --- monomial ideals ----------------------------------------------------------

class MonomialIdeal:
    """Monomial ideal given by its minimal generating set of exponent tuples."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, monomials):
        self.n = n
        self.gens = _minimalize_monomials(monomials)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(sum(m) == 0 for m in self.gens)

    def contains_monomial(self, m) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def colon_variable(self, v: int) -> "MonomialIdeal":
        """Quotient by the variable with index v."""
        out = []
        for g in self.gens:
            if g[v] > 0:
                e = list(g)
                e[v] -= 1
                out.append(tuple(e))
            else:
                out.append(g)
        return MonomialIdeal(self.n, out)

    def plus_variable(self, v: int) -> "MonomialIdeal":
        """Sum with the variable with index v."""
        var = tuple(1 if i == v else 0 for i in range(self.n))
        return MonomialIdeal(self.n, [var] + [g for g in self.gens if g[v] == 0])

    def max_generator_degree(self) -> int:
        return max((sum(g) for g in self.gens), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens={list(self.gens)})"


def _minimalize_monomials(monomials) -> tuple:
    ms = sorted(set(monomials), key=lambda m: (sum(m), m))
    out: list = []
    for m in ms:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return tuple(sorted(out))


# --- ideals -------------------------------------------------------------------

class Ideal:
    """Homogeneous ideal with lazily cached Groebner data.

    Caches are filled on first use; compute them eagerly (e.g. by calling
    groebner_basis) before sharing an Ideal across threads.
    """

    def __init__(self, ring: PolyRing, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomials")
            if g.ring != ring:
                raise DimensionMismatchError("generator from a different ring")
            if g.is_zero:
                continue
            if not g.is_homogeneous():
                raise ValueError(f"generator {g} is not homogeneous")
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._cache: dict = {}

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(g.homogeneous_degree() == 0 for g in self.generators)

    def groebner_basis(self, order="degrevlex") -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, monic, sorted by leading monomial."""
        cache_key = ("gb", order) if isinstance(order, str) else None
        if cache_key and cache_key in self._cache:
            return self._cache[cache_key]
        if order == "degrevlex":
            self._degrevlex_run()
            return self._cache[cache_key]
        raw, _ = _buchberger_raw(
            [g.terms for g in self.generators], order_key(order), self.ring.p
        )
        gb = tuple(Polynomial._raw(self.ring, g) for g in raw)
        if cache_key:
            self._cache[cache_key] = gb
        return gb

    def _degrevlex_run(self) -> None:
        """The one degrevlex Buchberger run per ideal: caches both its basis
        and the minimal generators it keeps along the way."""
        raw, kept = _buchberger_raw(
            [g.terms for g in self.generators], degrevlex_key, self.ring.p
        )
        self._cache[("gb", "degrevlex")] = tuple(Polynomial._raw(self.ring, g) for g in raw)
        self._cache["min_gens"] = tuple(self.generators[i] for i in kept)

    def initial_ideal(self, order="degrevlex") -> MonomialIdeal:
        cache_key = ("in", order) if isinstance(order, str) else None
        if cache_key and cache_key in self._cache:
            return self._cache[cache_key]
        gb = self.groebner_basis(order)
        ini = MonomialIdeal(self.ring.n, [g.leading_monomial(order) for g in gb])
        if cache_key:
            self._cache[cache_key] = ini
        return ini

    def normal_form(self, f: Polynomial, order="degrevlex") -> Polynomial:
        """Canonical representative of f in the quotient ring."""
        if f.ring != self.ring:
            raise DimensionMismatchError("polynomial from a different ring")
        key = order_key(order)
        gb = self.groebner_basis(order)
        basis = [g.terms for g in gb]
        lts = [g.leading_monomial(order) for g in gb]
        return Polynomial._raw(
            self.ring, _reduce_terms(f.terms, basis, lts, key, self.ring.p)
        )

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def minimal_generators(self) -> tuple[Polynomial, ...]:
        """An irredundant generating subset, greedily chosen by degree.

        The generators are taken in order of (degree, degrevlex leading
        monomial), and each is kept when it is not in the ideal of those
        kept before it. The degree-by-degree degrevlex Buchberger run finds
        these along the way and caches its basis too.
        """
        if "min_gens" not in self._cache:
            self._degrevlex_run()
        return self._cache["min_gens"]

    def max_generator_degree(self) -> int:
        """Largest degree among minimal generators (the D of the bounds)."""
        gens = self.minimal_generators()
        if not gens:
            raise ValueError("the zero ideal has no generator degree")
        return max(g.homogeneous_degree() for g in gens)

    def plus(self, *polys: Polynomial) -> "Ideal":
        return Ideal(self.ring, list(self.generators) + list(polys))

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


# --- ideal-level operations ------------------------------------------------------

def buchberger(I: Ideal, order="degrevlex") -> tuple[Polynomial, ...]:
    return I.groebner_basis(order)


def normal_form(f: Polynomial, I: Ideal, order="degrevlex") -> Polynomial:
    return I.normal_form(f, order)


def _exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f for g in (f); raises InternalLimitError if the division is inexact."""
    ring = g.ring
    p = ring.p
    key = degrevlex_key
    ltf = f.leading_monomial()
    inv = pow(f.leading_coefficient(), -1, p)
    work = dict(g.terms)
    quot: dict = {}
    while work:
        lm = max(work, key=key)
        if not mono_divides(ltf, lm):
            raise InternalLimitError("inexact polynomial division")
        q = mono_div(lm, ltf)
        c = (work[lm] * inv) % p
        quot[q] = c
        for m2, c2 in f.terms.items():
            mm = mono_mul(q, m2)
            s = (work.get(mm, 0) - c * c2) % p
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return Polynomial._raw(ring, quot)


def _linear_change(ring: PolyRing, forms):
    """Substitution pair (fwd, back) for an automorphism sending forms[k] to
    x_{n-k}, the variable with index n-1-k; the linear forms must be
    linearly independent.

    The new variables x_1, ..., x_{n-d} map back to the old variables off the
    pivot columns of an echelon form of the forms, in increasing order.
    """
    n, p = ring.n, ring.p
    rows = []
    for y in forms:
        coeffs = [0] * n
        for m, c in y.terms.items():
            coeffs[m.index(1)] = c
        rows.append(coeffs)
    pivots: list[int] = []
    echelon: list[list[int]] = []
    for row in rows:
        for j, e in zip(pivots, echelon):
            f = row[j]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, e)]
        k = next((i for i, c in enumerate(row) if c), None)
        if k is None:
            raise ValueError("the forms are linearly dependent")
        inv = pow(row[k], -1, p)
        pivots.append(k)
        echelon.append([(c * inv) % p for c in row])
    # columns of M_inv: images of x_i under the inverse map; the last d
    # columns are the forms, the last one forms[0]
    cols = []
    for i in range(n):
        if i in pivots:
            continue
        col = [0] * n
        col[i] = 1
        cols.append(col)
    cols.extend(reversed(rows))
    m_inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    m_fwd = _invert_matrix_modp(m_inv, p)

    def subst(matrix):
        images = []
        for j in range(n):
            terms = {}
            for i in range(n):
                if matrix[i][j]:
                    e = [0] * n
                    e[i] = 1
                    terms[tuple(e)] = matrix[i][j]
            images.append(Polynomial(ring, terms))
        return images

    return subst(m_fwd), subst(m_inv)


def _invert_matrix_modp(mat, p):
    n = len(mat)
    a = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            raise InternalLimitError("singular change of coordinates")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [(v * inv) % p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] % p:
                f = a[r][col] % p
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _colon_linear(I: Ideal, y: Polynomial, saturate: bool = False) -> Ideal:
    """I : y, or I : y^infinity when saturate is set, for a linear form y.

    A coordinate change sends y to the last variable x_n. In degrevlex, a
    power of x_n divides a Groebner basis element exactly when it divides
    its leading term (Bayer-Stillman), so the quotient is read off the
    transformed basis: each element loses one factor x_n, or for the
    saturation every factor x_n of its leading term.
    """
    ring = I.ring
    fwd, back = _linear_change(ring, [y])
    moved = Ideal(ring, [g.substitute(fwd) for g in I.generators])
    gb = moved.groebner_basis()
    last = ring.n - 1
    xn = ring.variable(last)
    out = []
    for g in gb:
        e = g.leading_monomial()[last]
        if not saturate:
            e = min(e, 1)
        out.append(_exact_divide(g, xn**e) if e else g)
    return Ideal(ring, [g.substitute(back) for g in out])


def adapted_initial_ideal(I: Ideal, forms) -> MonomialIdeal:
    """Degrevlex initial ideal M of I in coordinates where forms[k] is x_{n-k}.

    For degrevlex, Bayer-Stillman give in(J + x_n) = in(J) + x_n and
    in(J : x_n) = in(J) : x_n. So M plus the last k variables is the initial
    ideal of I plus the first k forms, and its colon by the next variable is
    that of the colon by the next form: one Groebner basis carries the
    Hilbert data of every section. With no forms this is I's own initial
    ideal.
    """
    forms = tuple(forms)
    if not forms:
        return I.initial_ideal()
    cache_key = ("adapted_in", forms)
    if cache_key not in I._cache:
        fwd, _ = _linear_change(I.ring, forms)
        moved = Ideal(I.ring, [g.substitute(fwd) for g in I.generators])
        I._cache[cache_key] = moved.initial_ideal()
    return I._cache[cache_key]


def _colon_general(I: Ideal, f: Polynomial) -> Ideal:
    """I : f via the intersection (t*I + (1-t)*f) eliminated down to the base
    ring, whose generators are then divided exactly by f."""
    ring = I.ring
    n, p = ring.n, ring.p
    ext = PolyRing(n + 1, p)

    def up(poly: Polynomial, t_shift: int) -> Polynomial:
        return Polynomial._raw(
            ext, {(t_shift,) + m: c for m, c in poly.terms.items()}
        )

    def elim_key(e):
        return (e[0], degrevlex_key(e[1:]))

    gens_ext = [up(g, 1).terms for g in I.generators]
    gens_ext.append((up(f, 0) - up(f, 1)).terms)
    gb, _ = _buchberger_raw(gens_ext, elim_key, p)
    intersection = []
    for g in gb:
        if all(m[0] == 0 for m in g):
            intersection.append(Polynomial._raw(ring, {m[1:]: c for m, c in g.items()}))
    return Ideal(ring, [_exact_divide(g, f) for g in intersection])


def colon(I: Ideal, y: Polynomial) -> Ideal:
    """The ideal quotient I : y = {f : f*y in I}."""
    if y.ring != I.ring:
        raise DimensionMismatchError("polynomial from a different ring")
    if y.is_zero:
        raise ValueError("cannot colon by zero")
    if not y.is_homogeneous():
        raise ValueError("colon requires a homogeneous polynomial")
    if y.homogeneous_degree() == 0:
        return I
    if I.is_zero:
        return I
    if y.homogeneous_degree() == 1:
        return _colon_linear(I, y)
    return _colon_general(I, y)


def saturate(I: Ideal, y: Polynomial) -> Ideal:
    """I : y^infinity.

    For a linear form this is read off one Groebner basis. For a form of
    higher degree the colon is iterated until it stabilizes, which it does
    because the ascending chain I : y^k ends in a Noetherian ring.
    """
    if y.ring == I.ring and y.homogeneous_degree() == 1:
        return _colon_linear(I, y, saturate=True)
    current = I
    while True:
        nxt = colon(current, y)
        if nxt == current:
            return current
        current = nxt


def msaturate(I: Ideal) -> Ideal:
    """Saturation with respect to the irrelevant maximal ideal.

    An element lies in the saturation exactly when its multiples by all
    monomials of sufficiently high degree fall into the ideal; the extra
    elements all live in degrees up to reg of the quotient, which is capped
    by a Taylor bound on the initial ideal. Each degree is then a kernel
    computation over F_p.
    """
    if I.is_zero or I.is_unit:
        return I
    # lazy import: oracle depends on this module at load time
    from .oracle import QuotientAlgebra, finite_support_bases, taylor_cap

    cap = taylor_cap(I.initial_ideal())
    alg = QuotientAlgebra(I)
    extra: list[Polynomial] = []
    for j, vecs in finite_support_bases(alg, cap).items():
        std = alg.std(j)
        for vec in vecs:
            terms = {m: int(c) for m, c in zip(std, vec) if c}
            extra.append(Polynomial(I.ring, terms))
    if not extra:
        return I
    return Ideal(I.ring, list(I.generators) + extra)


def is_filter_regular(I: Ideal, y: Polynomial) -> bool:
    """True iff (I : y) / I has finite length, i.e. the two ideals agree in all
    large degrees."""
    if y.is_zero:
        raise ValueError("zero is not filter regular")
    if y.homogeneous_degree() != 1:
        raise ValueError("filter regularity is tested for linear forms")
    J = colon(I, y)
    from .hilbert import numerator_full  # local import to avoid a module cycle

    diff = _poly_sub(numerator_full(I), numerator_full(J))
    return _finite_length_series(diff, I.ring.n) is not None


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _divide_one_minus_t(coeffs: list[int]):
    """Divide by (1 - t); returns (exact, quotient)."""
    acc = 0
    out = []
    for c in coeffs:
        acc += c
        out.append(acc)
    if acc != 0:
        return False, coeffs
    return True, out[:-1] if out else []


def _finite_length_series(num: list[int], n: int) -> list[int] | None:
    """num / (1-t)^n as a polynomial, the Hilbert series of a module of finite
    length; None when (1-t)^n does not divide num (positive dimension)."""
    for _ in range(n):
        exact, num = _divide_one_minus_t(num)
        if not exact:
            return None
    return num


def filter_regular_lsop(I: Ideal, seed, max_retries: int = 32) -> list[Polynomial]:
    """A filter-regular linear system of parameters for the quotient by I.

    Draws random linear forms from the seed, checking filter regularity at
    each step and that the final quotient is Artinian.
    """
    from .hilbert import dim_and_height  # local import to avoid a module cycle
    import random as _random

    d, _ = dim_and_height(I)
    rng = _random.Random(seed)
    forms: list[Polynomial] = []
    current = I
    for _ in range(max(d, 0)):
        for _attempt in range(max_retries):
            y = random_linear_form(I.ring, rng)
            if is_filter_regular(current, y):
                forms.append(y)
                current = current.plus(y)
                break
        else:
            raise GenericityError(
                "failed to find a filter regular form; try a new seed or larger p"
            )
    if d > 0 and dim_and_height(current)[0] != 0:
        raise GenericityError("random forms are not a system of parameters")
    return forms


# --- ideal file format ----------------------------------------------------------

_RING_RE = re.compile(r"^ring\s+n\s*=\s*(\d+)(?:\s+p\s*=\s*(\d+))?\s*$")


def parse_ideal_text(text: str, default_p: int | None = None) -> Ideal:
    """Parse the shared ideal file format.

    First nonempty line: ``ring n=<n> p=<p>`` (p optional); each following
    nonempty line is one homogeneous polynomial; ``#`` starts a comment.
    """
    from .ring import parse_polynomial

    ring = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            m = _RING_RE.match(line)
            if not m:
                raise IdealParseError(lineno, "expected header 'ring n=<n> p=<p>'")
            n = int(m.group(1))
            p = int(m.group(2)) if m.group(2) else (default_p or DEFAULT_PRIME)
            try:
                ring = PolyRing(n, p)
            except ValueError as exc:
                raise IdealParseError(lineno, str(exc)) from None
            continue
        try:
            f = parse_polynomial(ring, line)
        except ValueError as exc:
            raise IdealParseError(lineno, str(exc)) from None
        if f.is_zero:
            raise IdealParseError(lineno, "zero generator")
        if not f.is_homogeneous():
            raise IdealParseError(lineno, f"generator {line!r} is not homogeneous")
        gens.append(f)
    if ring is None:
        raise IdealParseError(0, "missing ring header")
    return Ideal(ring, gens)


def ideal_to_text(I: Ideal) -> str:
    lines = [f"ring n={I.ring.n} p={I.ring.p}"]
    lines.extend(str(g) for g in I.generators)
    return "\n".join(lines) + "\n"
