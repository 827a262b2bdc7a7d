import json
import random

import pytest

from regbound.bounds import (
    analyze,
    bound_classical,
    bound_corollary,
    bound_dim_ge2,
    bound_dim_le1,
    cs_recursive_bound,
    gather_invariants,
    phi,
    section_regularities,
)
from regbound.groebner import Ideal, filter_regular_lsop
from regbound.hilbert import InvariantError, artinian_length, section_hf
from regbound.oracle import regularity_exact
from regbound.ring import PolyRing, parse_polynomial

from helpers import structured_ideals

R2 = PolyRing(2)
R3 = PolyRing(3)


def ideal(ring, *gens):
    return Ideal(ring, [parse_polynomial(ring, g) for g in gens])


class TestPhi:
    def test_values(self):
        assert phi(2, 1, 2) == 4
        assert phi(3, 0, 2) == 7

    def test_maximal_cprime_gives_power(self):
        from math import comb

        for D in (1, 2, 3):
            for h in (1, 2, 3):
                top = comb(D + h - 1, h - 1) - h
                assert phi(D, top, h) == D**h

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            phi(2, 2, 2)  # top is C(3,1) - 2 = 1
        with pytest.raises(ValueError):
            phi(2, -1, 2)


class TestClosedFormBounds:
    def test_dim_le1(self):
        assert bound_dim_le1(3, 2) == 4
        assert bound_dim_le1(3, 0) == 2  # nothing above degree D - 1
        assert bound_dim_le1(2, 3) == 4

    def test_dim_ge2(self):
        assert bound_dim_ge2(2, 3, 1, 2, 2, 2) == 12
        assert bound_dim_ge2(2, 3, 1, 2, 2, 2, use_phi=False) == 12
        # exponent is 1 exactly when d = 2
        assert bound_dim_ge2(3, 1, 0, 2, 1, 2) == bound_dim_le1(3, 1) * (phi(3, 0, 2))

    def test_dim_ge2_preconditions(self):
        with pytest.raises(ValueError):
            bound_dim_ge2(2, 3, 1, 2, 2, 1)
        with pytest.raises(ValueError):
            bound_dim_ge2(2, 3, 0, 2, 9, 2)  # multiplicity above length bound

    def test_corollary(self):
        assert bound_corollary(2, 4) == 16
        assert bound_corollary(1, 5) == 1
        assert bound_corollary(2, 3) == 4
        with pytest.raises(ValueError):
            bound_corollary(2, 2)

    def test_classical_and_improvement_ratio(self):
        assert bound_classical(2, 4) == 256
        assert bound_classical(1, 3) == 4
        assert bound_classical(2, 4) // bound_corollary(2, 4) == 16

    def test_arbitrary_precision(self):
        assert bound_corollary(3, 8) == 3 ** (2**6)
        assert bound_classical(3, 8) == 6 ** (2**6)


class TestCsRecursive:
    def test_cohen_macaulay_reduces_to_max(self):
        I = ideal(R3, "x1^2")  # hypersurface, d = 2, defect 0
        lsop = filter_regular_lsop(I, seed=5)
        reg_section = regularity_exact(I.plus(lsop[0]))
        assert cs_recursive_bound(I, lsop) == max(2, reg_section)

    def test_low_dimension_rejected(self):
        I = ideal(R2, "x1^2", "x1*x2")  # d = 1
        lsop = filter_regular_lsop(I, seed=5)
        with pytest.raises(ValueError):
            cs_recursive_bound(I, lsop)

    def test_dominates_exact_regularity(self):
        for gens, seed in (
            (("x1^2", "x1*x2"), 3),
            (("x1*x2", "x1*x3"), 4),
            (("x1^2 + x2*x3",), 5),
        ):
            I = ideal(R3, *gens)
            lsop = filter_regular_lsop(I, seed=seed)
            if len(lsop) < 2:
                continue
            assert regularity_exact(I) <= cs_recursive_bound(I, lsop)


def linear_form_products(p):
    """Products of linear forms over F_p in four variables: two planes meeting
    in a point (non-Cohen-Macaulay, d = 2), a plane with an embedded
    component (d = 3), and a curve of degree four in P^3 (d = 2)."""
    ring = PolyRing(4, p)
    x1, x2, x3, x4 = ring.variables()
    return [
        Ideal(ring, [(x1 + x2) * (x3 + x4), (x1 + x2) * x4, x2 * (x3 + x4), x2 * x4]),
        Ideal(ring, [x1 * (x1 + x2), x1 * (x3 + x4) * x2]),
        Ideal(ring, [(x1 + x3) * x2, x1 * (x2 + x3) * (x1 + x2 + x4)]),
    ]


def caviglia(D):
    """(x1^D, x2^D, x1*x3^(D-1) - x2*x4^(D-1)): d = 2, not Cohen-Macaulay,
    reg(S/I) = D^2 - 2."""
    R4 = PolyRing(4)
    return ideal(R4, f"x1^{D}", f"x2^{D}", f"x1*x3^{D - 1} - x2*x4^{D - 1}")


class TestSectionRegularities:
    """Trung's formula on the adapted initial ideal against the Koszul oracle
    and the section Groebner bases it replaces."""

    def assert_matches_sections(self, I, seed=0):
        inv = gather_invariants(I, seed)
        lsop, d, D = inv.lsop, inv.d, inv.D
        regs = section_regularities(I, lsop)
        assert regs == [regularity_exact(I.plus(*lsop[:k])) for k in range(d + 1)]
        assert inv.c == section_hf(I, lsop[: max(d - 1, 0)], D)
        assert inv.cprime == section_hf(I, lsop, D)
        assert inv.length_artinian == artinian_length(I.plus(*lsop))
        return regs

    def test_structured_ideals(self):
        for I in structured_ideals():
            self.assert_matches_sections(I)

    def test_linear_form_products_in_small_characteristic(self):
        for p in (2, 3):
            for I in linear_form_products(p):
                self.assert_matches_sections(I, seed=1)

    def test_caviglia_family(self):
        for D in (2, 3):
            regs = self.assert_matches_sections(caviglia(D))
            assert regs[0] == D * D - 2
            assert analyze(caviglia(D), exact=True).exact_reg == D * D - 2

    def test_artinian_ideal_needs_no_forms(self):
        I = ideal(R3, "x1^2", "x2^2", "x3^2")
        assert section_regularities(I, []) == [3]

    def test_form_that_is_not_filter_regular_raises(self):
        with pytest.raises(InvariantError):
            section_regularities(ideal(R2, "x1*x2"), [R2.variable(0)])

    def test_sections_that_are_not_artinian_raise(self):
        with pytest.raises(InvariantError):
            section_regularities(ideal(R3, "x1*x2"), [R3.variable(2)])


class TestAnalyze:
    def test_three_quadrics(self):
        report = analyze(ideal(R3, "x1^2", "x2^2", "x3^2"), seed=1, exact=True)
        inv = report.invariants
        assert (inv.D, inv.d, inv.c) == (2, 0, 3)
        assert report.bounds["dim_le1"] == 4
        assert report.exact_reg == 3
        assert report.verdicts["dim_le1"] is True
        assert report.bounds["corollary"] == 4
        assert report.bounds["classical"] == 16

    def test_embedded_point_in_plane(self):
        report = analyze(ideal(R2, "x1^2", "x1*x2"), seed=1, exact=True)
        inv = report.invariants
        assert inv.d == 1
        assert inv.c == 1  # HF(S/I; 2)
        assert report.bounds["dim_le1"] == 2
        assert report.exact_reg == 1
        assert report.hard_verdicts_ok()

    def test_power_of_maximal_ideal_is_tight(self):
        D = 3
        gens = ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3"]
        report = analyze(ideal(R2, *gens), seed=1, exact=True)
        assert report.invariants.c == 0
        assert report.bounds["dim_le1"] == D - 1 == report.exact_reg

    def test_dim_two_report(self):
        report = analyze(ideal(R3, "x1^2", "x1*x2"), seed=2, exact=True)
        inv = report.invariants
        assert inv.d == 2
        assert report.bounds["dim_ge2_phi"] is not None
        assert report.bounds["dim_ge2_phi"] <= report.bounds["dim_ge2_Dh"]
        assert report.bounds["dim_ge2_phi"] <= report.bounds["green_variant"]
        assert report.bounds["cs_recursive"] >= report.exact_reg
        assert report.hard_verdicts_ok()

    def test_artinian_length_bound_chain(self):
        for gens, ring in (
            (("x1^2", "x1*x2"), R2),
            (("x1^2", "x2^2", "x3^2"), R3),
            (("x1*x2", "x1*x3"), R3),
        ):
            inv = gather_invariants(ideal(ring, *gens), seed=3)
            assert inv.length_artinian <= inv.phi_value <= inv.D**inv.h

    def test_rejects_degenerate_ideals(self):
        with pytest.raises(ValueError):
            analyze(Ideal(R2, []))
        with pytest.raises(ValueError):
            analyze(Ideal(R2, [R2.one()]))

    def test_deterministic_reports(self):
        I1 = ideal(R3, "x1^2 + x2*x3", "x2^2")
        I2 = ideal(R3, "x1^2 + x2*x3", "x2^2")
        a = analyze(I1, seed=9, exact=True).to_json_dict()
        b = analyze(I2, seed=9, exact=True).to_json_dict()
        assert json.dumps(a) == json.dumps(b)

    def test_json_values_are_decimal_strings(self):
        report = analyze(ideal(R3, "x1^2", "x2^2", "x3^2"), seed=1, exact=True)
        data = report.to_json_dict()
        assert data["ring"] == {"n": "3", "p": "32003"}
        assert data["bounds"]["dim_le1"] == "4"
        assert data["bounds"]["dim_ge2_phi"] is None
        assert data["exact"]["reg_quotient"] == "3"
        assert all(isinstance(v, bool) for v in data["verdicts"].values())

    def test_seed_changes_lsop_but_not_invariants(self):
        I = ideal(R3, "x1^2", "x1*x2")
        a = gather_invariants(I, seed=1)
        b = gather_invariants(I, seed=2)
        assert (a.c, a.cprime, a.length_artinian) == (b.c, b.cprime, b.length_artinian)


class TestReportedRatios:
    def test_worked_degree_two_values(self):
        rng = random.Random(12)
        from regbound.fuzz import random_homogeneous_form

        for n, cor, cla in ((3, 4, 16), (4, 16, 256)):
            ring = PolyRing(n)
            gens = [random_homogeneous_form(ring, rng, 2) for _ in range(2)]
            report = analyze(Ideal(ring, gens), seed=4, exact=True)
            assert report.bounds["corollary"] == cor
            assert report.bounds["classical"] == cla
            assert report.exact_reg + 1 <= cor
