import numpy as np
import pytest

from regbound.groebner import Ideal
from regbound.hilbert import InvariantError, numerator_full
from regbound.oracle import (
    REG_EMPTY,
    OracleBudgetError,
    QuotientAlgebra,
    _scan,
    betti_table,
    koszul_strand,
    nullspace_mod_p,
    rank_mod_p,
    regularity_exact,
    regularity_ideal,
    regularity_initial,
    taylor_cap,
)
from helpers import structured_ideals
from regbound.ring import PolyRing, parse_polynomial

R2 = PolyRing(2)
R3 = PolyRing(3)


def ideal(ring, *gens):
    return Ideal(ring, [parse_polynomial(ring, g) for g in gens])


def power_of_maximal_ideal(ring, D):
    return Ideal(
        ring,
        [
            parse_polynomial(ring, "*".join(f"x{i+1}^{e}" for i, e in enumerate(m) if e))
            for m in ring.monomials_of_degree(D)
        ],
    )


class TestLinearAlgebra:
    def test_rank_small(self):
        A = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert rank_mod_p(A, 5) == 1
        assert rank_mod_p(np.eye(3, dtype=np.int64), 7) == 3

    def test_rank_characteristic_sensitivity(self):
        A = np.array([[2, 0], [0, 3]], dtype=np.int64)
        assert rank_mod_p(A, 3) == 1
        assert rank_mod_p(A, 5) == 2

    def test_nullspace(self):
        A = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
        basis = nullspace_mod_p(A, 7)
        assert len(basis) == 1
        v = basis[0]
        assert ((A @ v) % 7 == 0).all()


    def test_large_prime_refused(self):
        # at p = 4294967311 int64 products of residues overflow and ranks
        # come out wrong, so the kernels refuse it
        A = np.eye(3, dtype=np.int64)
        with pytest.raises(ValueError, match="below 2\\^24"):
            rank_mod_p(A, 4294967311)
        with pytest.raises(ValueError, match="below 2\\^24"):
            nullspace_mod_p(A, 4294967311)


class TestKoszulStrand:
    def test_regular_sequence_pattern(self):
        from math import comb

        for n in (2, 3):
            ring = PolyRing(n)
            I = Ideal(ring, [parse_polynomial(ring, f"x{i+1}^2") for i in range(n)])
            for i in range(n + 1):
                for j in range(2 * n + 2):
                    expected = comb(n, i) if j == 2 * i else 0
                    assert koszul_strand(I, i, j) == expected, (n, i, j)

    def test_bottom_corner_is_one(self):
        assert koszul_strand(ideal(R2, "x1^2"), 0, 0) == 1
        assert koszul_strand(ideal(R3, "x1^2 + x2*x3"), 0, 0) == 1

    def test_first_strand_counts_minimal_generators(self):
        I = ideal(R3, "x1^2", "x1*x2", "x2^3")
        assert koszul_strand(I, 1, 2) == 2
        assert koszul_strand(I, 1, 3) == 1
        assert koszul_strand(I, 1, 4) == 0


class TestRegularity:
    def test_complete_intersection_of_quadrics(self):
        I = ideal(R3, "x1^2", "x2^2", "x3^2")
        assert regularity_exact(I) == 3

    def test_power_of_maximal_ideal(self):
        for n, D in ((2, 2), (2, 4), (3, 2), (3, 3)):
            I = power_of_maximal_ideal(PolyRing(n), D)
            assert regularity_exact(I) == D - 1, (n, D)

    def test_embedded_point(self):
        assert regularity_exact(ideal(R2, "x1^2", "x1*x2")) == 1

    def test_zero_ideal(self):
        assert regularity_exact(Ideal(R2, [])) == 0

    def test_unit_ideal_sentinel(self):
        assert regularity_exact(Ideal(R2, [R2.one()])) == REG_EMPTY

    def test_monomial_complete_intersections(self):
        # reg = sum of (d_i - 1), including the all-equal (D-1)*h case
        cases = [((2, 3), 3), ((2, 2, 2), 3), ((3, 3), 4), ((2, 4, 3), 6)]
        for degs, _ in cases:
            ring = PolyRing(len(degs))
            I = Ideal(
                ring,
                [parse_polynomial(ring, f"x{i+1}^{d}") for i, d in enumerate(degs)],
            )
            assert regularity_exact(I) == sum(d - 1 for d in degs)

    def test_generic_complete_intersections(self):
        import random

        from regbound.fuzz import random_homogeneous_form

        rng = random.Random(8)
        for h, D in ((2, 2), (2, 3), (3, 2), (3, 3)):
            ring = PolyRing(h)
            gens = [random_homogeneous_form(ring, rng, D) for _ in range(h)]
            assert regularity_exact(Ideal(ring, gens)) == (D - 1) * h


class TestRegularityIdeal:
    def test_shift_by_one(self):
        assert regularity_ideal(ideal(R3, "x1^2", "x2^2", "x3^2")) == 4

    def test_linear_maximal_ideal(self):
        assert regularity_ideal(ideal(R2, "x1", "x2")) == 1

    def test_power_of_maximal_ideal(self):
        assert regularity_ideal(power_of_maximal_ideal(R2, 3)) == 3

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            regularity_ideal(Ideal(R2, []))


class TestBettiTable:
    def test_euler_identity_on_structured_ideals(self):
        for I in structured_ideals():
            table = betti_table(I)
            assert table.euler_numerator() == numerator_full(I), str(I)

    def test_initial_ideal_caps_regularity(self):
        for I in structured_ideals():
            assert regularity_exact(I) <= regularity_initial(I)

    def test_strands_independent_of_normal_form_order(self):
        for I in (
            ideal(R3, "x1^2 + x2*x3", "x2^2"),
            ideal(R2, "x1^2 - x2^2", "x1*x2"),
        ):
            cap = max(
                taylor_cap(I.initial_ideal("degrevlex")),
                taylor_cap(I.initial_ideal("lex")),
            )
            a = _scan(QuotientAlgebra(I, order="degrevlex"), cap)
            b = _scan(QuotientAlgebra(I, order="lex"), cap)
            assert a.entries == b.entries

    def test_negative_betti_number_raises(self, monkeypatch):
        monkeypatch.setattr(QuotientAlgebra, "strand_rank", lambda self, i, j: 10**6)
        with pytest.raises(InvariantError, match="negative Betti number"):
            betti_table(ideal(R2, "x1^2", "x2^2"))

    def test_rows_accessor(self):
        table = betti_table(ideal(R2, "x1^2", "x2^2"))
        assert table.rows()[0] == (0, [(0, 1)])


class TestTaylorCap:
    def test_single_generator(self):
        I = ideal(R2, "x1^2")
        assert taylor_cap(I.initial_ideal()) == 1

    def test_upper_bounds_regularity(self):
        for I in structured_ideals():
            M = I.initial_ideal()
            assert regularity_initial(I) <= taylor_cap(M)


class TestBudget:
    def test_budget_error_raised(self):
        I = power_of_maximal_ideal(R3, 3)
        with pytest.raises(OracleBudgetError):
            betti_table(I, max_dim=2)

    def test_budget_allows_small_cases(self):
        I = ideal(R2, "x1^2", "x2^2")
        assert betti_table(I, max_dim=100).regularity() == 2
