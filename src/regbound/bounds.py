"""Regularity upper bounds assembled from measured invariants.

The pipeline measures (D, d, h, e, c, c') for an ideal, evaluates every
bound in arbitrary precision, and optionally verifies each one against the
exact regularity. Both the section invariants and the exact regularity come
from one Groebner basis, taken in coordinates where the filter-regular
l.s.o.p. is the last variables (Bayer-Stillman), with the regularity read
off by Trung's formula. The Koszul oracle stays an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod

from . import macaulay
from .groebner import (
    Ideal,
    MonomialIdeal,
    _finite_length_series,
    _poly_sub,
    adapted_initial_ideal,
    filter_regular_lsop,
)
from .hilbert import (
    InvariantError,
    artinian_length,
    dim_and_height,
    hilbert_function,
    hilbert_series,
    length_defect,
    multiplicity,
    numerator_full,
)
from .ring import Polynomial

BOUND_KEYS = (
    "dim_le1",
    "dim_ge2_phi",
    "dim_ge2_Dh",
    "corollary",
    "classical",
    "green_variant",
    "egh_conditional",
    "cs_recursive",
)


def phi(D: int, cprime: int, h: int) -> int:
    """Corrected length bound for an Artinian reduction:
    D^h - C(D+h-1, h-1) + c' + h; always at most D^h."""
    if D < 1 or h < 1:
        raise ValueError("phi needs D >= 1 and h >= 1")
    top = comb(D + h - 1, h - 1) - h
    if not 0 <= cprime <= top:
        raise ValueError(
            f"c'={cprime} outside [0, {top}]; an upstream invariant is broken"
        )
    return D**h - comb(D + h - 1, h - 1) + cprime + h


def bound_dim_le1(D: int, c: int) -> int:
    """Regularity bound D + c - 1 for quotients of dimension at most one."""
    if c < 0:
        raise ValueError("c must be non-negative")
    return D + c - 1


def bound_dim_ge2(D: int, c: int, cprime: int, h: int, e: int, d: int,
                  use_phi: bool = True) -> int:
    """Regularity bound ((D+c-1)(L-e+1))^(2^(d-2)) for dimension d >= 2,
    where L is the corrected length bound (use_phi) or the crude D^h."""
    if d < 2:
        raise ValueError("bound applies to dimension at least two")
    if e < 1:
        raise ValueError("multiplicity must be positive")
    length_bound = phi(D, cprime, h) if use_phi else D**h
    base_right = length_bound - e + 1
    if base_right < 1:
        raise ValueError(
            f"multiplicity {e} exceeds the length bound {length_bound}; "
            "an upstream invariant is broken"
        )
    return (bound_dim_le1(D, c) * base_right) ** (2 ** (d - 2))


def bound_corollary(D: int, n: int) -> int:
    """D^(2^(n-2)), bounding reg of the ideal itself (not the quotient)."""
    if n < 3:
        raise ValueError("corollary bound requires n >= 3")
    if D < 1:
        raise ValueError("D must be positive")
    return D ** (2 ** (n - 2))


def bound_classical(D: int, n: int) -> int:
    """(2D)^(2^(n-2)), the classical double-exponential bound on reg of the
    ideal, reported for comparison."""
    if n < 2:
        raise ValueError("classical bound requires n >= 2")
    return (2 * D) ** (2 ** (n - 2))


def _adapted_sections(I: Ideal, forms) -> list[MonomialIdeal]:
    """M_0, ..., M_d: the adapted initial ideal plus its last k variables,
    the initial ideal of I plus the first k forms."""
    cuts = [adapted_initial_ideal(I, forms)]
    for k in range(len(forms)):
        cuts.append(cuts[-1].plus_variable(I.ring.n - 1 - k))
    return cuts


def _end_degree(num: list[int], n: int, what: str) -> int | None:
    """Top nonzero degree of a module of finite length with Hilbert series
    num / (1-t)^n, or None for the zero module."""
    series = _finite_length_series(num, n)
    if series is None:
        raise InvariantError(f"{what} does not have finite length")
    return max((j for j, c in enumerate(series) if c), default=None)


def section_regularities(I: Ideal, forms) -> list[int]:
    """reg(S/(I + forms[:k])) for k = 0, ..., len(forms), by Trung's formula.

    The forms must be a filter-regular sequence whose last section is
    Artinian. With I_k = I + forms[:k], a_k = end((I_k : forms[k]) / I_k) for
    k < d and a_d = end(S/I_d), reg(S/I_k) = max(a_k, ..., a_d) (Trung,
    Reduction exponent and degree bound for the defining equations of graded
    rings, Proc. AMS 1987). Each a_k is read off the Hilbert numerators of
    the adapted initial ideal; a form that is not filter-regular, or a last
    section that is not Artinian, raises InvariantError.
    """
    forms = list(forms)
    if I.is_unit:
        raise ValueError("the unit ideal has no regularity of this form")
    n = I.ring.n
    cuts = _adapted_sections(I, forms)
    ends = []
    for k, M in enumerate(cuts[:-1]):
        diff = _poly_sub(numerator_full(M), numerator_full(M.colon_variable(n - 1 - k)))
        ends.append(_end_degree(diff, n, f"(I_{k} : y_{k + 1}) / I_{k}"))
    last = cuts[-1] if forms else I  # with no forms, I's numerator is cached
    ends.append(_end_degree(numerator_full(last), n, f"S/I_{len(forms)}"))
    return [max(a for a in ends[k:] if a is not None) for k in range(len(ends))]


def cs_recursive_bound(I: Ideal, lsop) -> int:
    """Hyperplane-section recursion bound: max(D, reg of the first section)
    plus the product of the section regularities times the length defect."""
    lsop = list(lsop)
    d = len(lsop)
    if d < 2:
        raise ValueError("recursion bound applies to dimension at least two")
    D = I.max_generator_degree()
    regs = section_regularities(I, lsop)[1:d]
    defect = length_defect(I, lsop)
    return max(D, regs[0]) + prod(regs) * defect


@dataclass
class Invariants:
    """Everything the bounds need, measured from one shared l.s.o.p."""

    D: int
    d: int
    h: int
    e: int
    hf_D: int
    c: int
    cprime: int
    length_artinian: int
    phi_value: int
    lsop: list[Polynomial] = field(repr=False)
    seed: int = 0


def gather_invariants(I: Ideal, seed: int = 0) -> Invariants:
    if I.is_unit:
        raise ValueError("the unit ideal has no invariants to bound")
    if I.is_zero:
        raise ValueError("the zero ideal has no generator degree D")
    D = I.max_generator_degree()
    d, h = dim_and_height(I)
    e = multiplicity(I)
    hf_D = hilbert_function(I, D)
    lsop = filter_regular_lsop(I, seed)
    if lsop:
        cuts = _adapted_sections(I, lsop)
        c = hilbert_function(cuts[-2], D)
        artinian = hilbert_series(cuts[-1])
        cprime, length_art = artinian.hf(D), artinian.length()
    else:
        c = cprime = hf_D
        length_art = artinian_length(I)
    return Invariants(
        D=D,
        d=d,
        h=h,
        e=e,
        hf_D=hf_D,
        c=c,
        cprime=cprime,
        length_artinian=length_art,
        phi_value=phi(D, cprime, h),
        lsop=lsop,
        seed=seed,
    )


def green_estimates(inv: Invariants) -> tuple[int, int]:
    """Macaulay-expansion estimates for c and c' from the unsectioned Hilbert
    value, via repeated generic hyperplane restriction."""
    expansion = macaulay.expand(inv.hf_D, inv.D)
    c_est = macaulay.green_bound(expansion, max(inv.d - 1, 0))
    cp_est = macaulay.green_bound(expansion, max(inv.d, 0))
    return c_est, cp_est


@dataclass
class BoundReport:
    """All measured invariants, every bound value, and optional verdicts."""

    n: int
    p: int
    generators: tuple[str, ...]
    invariants: Invariants
    bounds: dict
    exact_reg: int | None = None
    exact_reg_ideal: int | None = None
    verdicts: dict = field(default_factory=dict)

    def hard_verdicts_ok(self) -> bool:
        """True when every unconditional bound verdict holds (the EGH bound is
        conditional and only logged)."""
        return all(v for k, v in self.verdicts.items() if k != "egh_conditional")

    def to_json_dict(self) -> dict:
        def s(value):
            return None if value is None else str(value)

        inv = self.invariants
        out = {
            "ring": {"n": s(self.n), "p": s(self.p)},
            "ideal": {"generators": list(self.generators), "D": s(inv.D)},
            "invariants": {
                "d": s(inv.d),
                "h": s(inv.h),
                "e": s(inv.e),
                "c": s(inv.c),
                "cprime": s(inv.cprime),
                "lsop_seed": s(inv.seed),
                "length_artinian": s(inv.length_artinian),
            },
            "bounds": {k: s(self.bounds.get(k)) for k in BOUND_KEYS},
        }
        if self.exact_reg is not None:
            out["exact"] = {
                "reg_quotient": s(self.exact_reg),
                "reg_ideal": s(self.exact_reg_ideal),
            }
        out["verdicts"] = dict(self.verdicts)
        return out

    def text_lines(self) -> list[str]:
        inv = self.invariants
        lines = [
            f"ring        n={self.n} p={self.p}",
            f"ideal       {len(self.generators)} generators, D={inv.D}",
            f"invariants  d={inv.d} h={inv.h} e={inv.e} c={inv.c} "
            f"c'={inv.cprime} l(R^(d))={inv.length_artinian} phi={inv.phi_value} "
            f"(lsop seed {inv.seed})",
        ]
        shown = []
        for key in BOUND_KEYS:
            val = self.bounds.get(key)
            shown.append(f"{key}={val if val is not None else 'n/a'}")
        lines.append("bounds      " + "  ".join(shown))
        if self.exact_reg is not None:
            lines.append(
                f"exact       reg(S/I)={self.exact_reg} reg(I)={self.exact_reg_ideal}"
            )
            verdicts = "  ".join(
                f"{k}:{'OK' if v else 'VIOLATED'}" for k, v in self.verdicts.items()
            )
            lines.append("verdicts    " + verdicts)
        return lines


def analyze(
    I: Ideal,
    seed: int = 0,
    exact: bool = False,
    with_cs: bool | None = None,
) -> BoundReport:
    """Measure invariants and evaluate every applicable bound.

    With ``exact``, Trung's formula on the adapted initial ideal (see
    section_regularities) supplies reg(S/I) and each bound gets a verdict;
    ``with_cs`` (default: exact and d >= 2) additionally evaluates the
    hyperplane-section recursion bound from the regularity of every section.
    """
    inv = gather_invariants(I, seed)
    n, D, d, h, e = I.ring.n, inv.D, inv.d, inv.h, inv.e
    c_est, cp_est = green_estimates(inv)

    bounds: dict = {key: None for key in BOUND_KEYS}
    if d <= 1:
        bounds["dim_le1"] = bound_dim_le1(D, inv.c)
        bounds["green_variant"] = bound_dim_le1(D, c_est)
    else:
        bounds["dim_ge2_phi"] = bound_dim_ge2(D, inv.c, inv.cprime, h, e, d)
        bounds["dim_ge2_Dh"] = bound_dim_ge2(
            D, inv.c, inv.cprime, h, e, d, use_phi=False
        )
        cp_cap = comb(D + h - 1, h - 1) - h
        bounds["green_variant"] = bound_dim_ge2(
            D, c_est, min(cp_est, cp_cap), h, e, d
        )
    if n >= 3:
        bounds["corollary"] = bound_corollary(D, n)
    if n >= 2:
        bounds["classical"] = bound_classical(D, n)
    if d == 0:
        from .lpp import egh_corollary_bound, lpp_construct

        L = lpp_construct(inv.hf_D, D, [D] * n)
        if L.segment:
            a, t_a = L.closed_form_data()
            bounds["egh_conditional"] = egh_corollary_bound(n, D, a, t_a)
        else:
            bounds["egh_conditional"] = n * (D - 1)

    report = BoundReport(
        n=n,
        p=I.ring.p,
        generators=tuple(str(g) for g in I.generators),
        invariants=inv,
        bounds=bounds,
    )
    if not exact:
        return report

    if with_cs is None:
        with_cs = d >= 2
    reg = section_regularities(I, inv.lsop)[0]
    report.exact_reg = reg
    report.exact_reg_ideal = reg + 1
    if with_cs and d >= 2:
        bounds["cs_recursive"] = cs_recursive_bound(I, inv.lsop)

    compare_quotient = {
        "dim_le1",
        "dim_ge2_phi",
        "dim_ge2_Dh",
        "green_variant",
        "egh_conditional",
        "cs_recursive",
    }
    for key in BOUND_KEYS:
        val = bounds.get(key)
        if val is None:
            continue
        target = reg if key in compare_quotient else reg + 1
        report.verdicts[key] = target <= val
    return report
