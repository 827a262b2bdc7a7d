"""Multivariate polynomial arithmetic over a prime field.

Monomials are plain exponent tuples; polynomials map exponent tuples to
nonzero coefficients in [1, p-1]. Everything is immutable after construction,
so values can be shared freely across threads.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_PRIME = 32003

# Largest characteristic plus one. The F_p kernels work in numpy int64 and
# sum products of two residues: below 2^24 a product is under 2^48, so sums
# of up to 2^15 products (the inner dimension of a matrix product) cannot
# overflow.
PRIME_CAP = 1 << 24


class DimensionMismatchError(ValueError):
    """Operands live over rings with different variable counts."""


def is_prime(p: int) -> bool:
    """Trial-division primality test; fine for the word-sized primes used here."""
    if p < 2:
        return False
    for f in (2, 3):
        if p % f == 0:
            return p == f
    f = 5
    while f * f <= p:
        if p % f == 0 or p % (f + 2) == 0:
            return False
        f += 6
    return True


def check_prime_size(p: int) -> None:
    """Refuse a characteristic at or above PRIME_CAP."""
    if p >= PRIME_CAP:
        raise ValueError(f"characteristic {p} is too large: primes must be below 2^24")


@dataclass(frozen=True)
class PolyRing:
    """Standard graded polynomial ring F_p[x1, ..., xn]; every variable has degree 1."""

    n: int
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ring needs at least one variable")
        check_prime_size(self.p)
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.n))

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.n: 1})

    def variable(self, i: int) -> "Polynomial":
        """The variable with 0-based index i (printed as x{i+1})."""
        e = [0] * self.n
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def variables(self) -> list["Polynomial"]:
        return [self.variable(i) for i in range(self.n)]

    def monomials_of_degree(self, d: int) -> tuple[tuple[int, ...], ...]:
        """All degree-d monomials, in decreasing lex order (x1 > x2 > ... > xn)."""
        return _monomials_of_degree(self.n, d)


@lru_cache(maxsize=None)
def _monomials_of_degree(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in _monomials_of_degree(n - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


# --- monomial helpers (exponent tuples) ---

def mono_degree(m) -> int:
    return sum(m)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    """True iff a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """b / a, assuming a | b."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def lex_key(m):
    """Sort key realizing lex with x1 > x2 > ... > xn."""
    return m


def degrevlex_key(m):
    """Sort key realizing degree reverse lex: degree first, then the reversed
    exponent vector compared right-to-left with inverted sign."""
    return (sum(m), tuple(-e for e in reversed(m)))


ORDER_KEYS = {"lex": lex_key, "degrevlex": degrevlex_key}


def order_key(order):
    """Resolve an order name or key callable to a key callable."""
    if callable(order):
        return order
    try:
        return ORDER_KEYS[order]
    except KeyError:
        raise ValueError(f"unknown monomial order {order!r}") from None


def compare(m1, m2, order="lex") -> int:
    """Compare two monomials; returns -1, 0 or 1."""
    if len(m1) != len(m2):
        raise DimensionMismatchError(
            f"monomials have {len(m1)} and {len(m2)} exponents"
        )
    key = order_key(order)
    k1, k2 = key(m1), key(m2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


class Polynomial:
    """Immutable polynomial over a PolyRing.

    ``terms`` maps exponent tuples to coefficients in [1, p-1]; zero
    coefficients are never stored, and the zero polynomial has no terms.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        p = ring.p
        clean = {}
        for m, c in terms.items():
            c %= p
            if c:
                clean[m] = c
        self.ring = ring
        self.terms = clean

    @classmethod
    def _raw(cls, ring, terms):
        """Trusted constructor: terms already reduced mod p with no zeros."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    # -- structure --

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """The common degree of all terms, or None for zero/inhomogeneous."""
        degs = {sum(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading_monomial(self, order="degrevlex"):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order_key(order))

    def leading_coefficient(self, order="degrevlex") -> int:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order="degrevlex") -> "Polynomial":
        if not self.terms:
            return self
        inv = pow(self.leading_coefficient(order), -1, self.ring.p)
        p = self.ring.p
        return Polynomial._raw(self.ring, {m: (c * inv) % p for m, c in self.terms.items()})

    # -- arithmetic --

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise DimensionMismatchError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial(self.ring, {(0,) * self.ring.n: other})
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._raw(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.ring.p
        return Polynomial._raw(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial(self.ring, {(0,) * self.ring.n: other})
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if not c:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial._raw(self.ring, {m: (a * c) % p for m, a in self.terms.items()})
        self._check(other)
        p = self.ring.p
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = (out.get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial._raw(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def substitute(self, images: list["Polynomial"]) -> "Polynomial":
        """Evaluate at x_i -> images[i]; images live in any common ring."""
        if len(images) != self.ring.n:
            raise DimensionMismatchError("need one image per variable")
        target = images[0].ring if images else self.ring
        out = target.zero()
        pow_cache: dict = {}
        for m, c in self.terms.items():
            term = target.one() * c
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    if key not in pow_cache:
                        pow_cache[key] = images[i] ** e
                    term = term * pow_cache[key]
            out = out + term
        return out

    # -- formatting --

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variable_names
        half = self.ring.p // 2
        items = sorted(self.terms.items(), key=lambda mc: degrevlex_key(mc[0]), reverse=True)
        pieces = []
        for m, c in items:
            if c > half:
                sign, c = "-", self.ring.p - c
            else:
                sign = "+"
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            else:
                body = f"{c}*" + "*".join(factors)
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def random_linear_form(ring: PolyRing, rng) -> Polynomial:
    """A uniformly random nonzero linear form; deterministic given the rng/seed."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    while True:
        coeffs = [rng.randrange(ring.p) for _ in range(ring.n)]
        if any(coeffs):
            break
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * ring.n
            e[i] = 1
            terms[tuple(e)] = c
    return Polynomial._raw(ring, terms)


_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_INT_RE = re.compile(r"^\d+$")


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse `3*x1^2*x2 + x3^3 - x2*x3^2` style input."""
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    chunks = re.split(r"([+-])", s)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"malformed polynomial {text!r}")
    poly = ring.zero()
    for sign, term in zip(chunks[::2], chunks[1::2]):
        if sign not in "+-" or not term:
            raise ValueError(f"malformed polynomial {text!r}")
        coeff = 1
        exps = [0] * ring.n
        for factor in term.split("*"):
            if _INT_RE.match(factor):
                coeff *= int(factor)
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"malformed term {factor!r}")
            idx = int(m.group(1))
            if not 1 <= idx <= ring.n:
                raise ValueError(f"variable x{idx} outside ring with n={ring.n}")
            exps[idx - 1] += int(m.group(2)) if m.group(2) else 1
        if sign == "-":
            coeff = -coeff
        poly = poly + Polynomial(ring, {tuple(exps): coeff})
    return poly
