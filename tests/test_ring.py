import random

import pytest
from hypothesis import given, settings, strategies as st

from regbound.ring import (
    DimensionMismatchError,
    PolyRing,
    Polynomial,
    compare,
    mono_divides,
    mono_mul,
    parse_polynomial,
    random_linear_form,
)

R2 = PolyRing(2)
R3 = PolyRing(3)


def poly(ring, s):
    return parse_polynomial(ring, s)


class TestRingConstruction:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            PolyRing(2, 32004)

    def test_prime_size_cap(self):
        # 4294967311 is prime; int64 kernels overflow at that size
        with pytest.raises(ValueError, match="below 2\\^24"):
            PolyRing(2, 4294967311)
        assert PolyRing(2, 16777213).p == 16777213  # the largest prime below 2^24

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            PolyRing(0)

    def test_variable_names(self):
        assert PolyRing(3).variable_names == ("x1", "x2", "x3")


class TestCompare:
    def test_lex_first_exponent_decides(self):
        # x1*x3 vs x2^2
        assert compare((1, 0, 1), (0, 2, 0), "lex") == 1

    def test_reflexive(self):
        m = (1, 2, 0)
        assert compare(m, m, "lex") == 0
        assert compare(m, m, "degrevlex") == 0

    def test_degrevlex_reverses_tail(self):
        assert compare((1, 0, 1), (0, 2, 0), "degrevlex") == -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compare((1, 0), (1, 0, 0), "lex")

    def test_orders_refine_divisibility(self):
        # exhaustive over monomials of degree <= 5 in n = 3
        monos = [m for d in range(6) for m in PolyRing(3).monomials_of_degree(d)]
        for a in monos:
            for b in monos:
                if a != b and mono_divides(a, b):
                    assert compare(a, b, "lex") == -1
                    assert compare(a, b, "degrevlex") == -1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_multiplication_is_order_compatible(self, data):
        mono = st.tuples(*(st.integers(0, 4) for _ in range(3)))
        a, b, c = data.draw(mono), data.draw(mono), data.draw(mono)
        for order in ("lex", "degrevlex"):
            if compare(a, b, order) == -1:
                assert compare(mono_mul(a, c), mono_mul(b, c), order) == -1


from helpers import random_poly


class TestArithmetic:
    def test_additive_inverse(self):
        assert poly(R2, "x1 + x2") + poly(R2, "-x1") == poly(R2, "x2")

    def test_square_of_binomial(self):
        assert poly(R2, "x1 + x2") ** 2 == poly(R2, "x1^2 + 2*x1*x2 + x2^2")

    def test_multiply_by_zero(self):
        assert (poly(R2, "x1") * 0).is_zero

    def test_mixed_rings_rejected(self):
        with pytest.raises(DimensionMismatchError):
            poly(R2, "x1") + poly(R3, "x1")

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms_on_random_triples(self, seed):
        rng = random.Random(seed)
        f, g, h = (random_poly(R2, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    def test_homogeneous_flags(self):
        assert poly(R2, "x1^2 + x1*x2").is_homogeneous()
        assert poly(R2, "x1^2 + x1*x2").homogeneous_degree() == 2
        assert not poly(R2, "x1^2 + x2").is_homogeneous()
        assert R2.zero().is_homogeneous()


class TestRandomLinearForm:
    def test_deterministic_given_seed(self):
        assert random_linear_form(R2, 42) == random_linear_form(R2, 42)

    def test_distinct_seeds_give_independent_draws(self):
        draws = {str(random_linear_form(R3, s)) for s in range(20)}
        assert len(draws) > 15

    def test_single_variable_never_zero(self):
        ring = PolyRing(1)
        for s in range(50):
            f = random_linear_form(ring, s)
            assert not f.is_zero
            assert f.homogeneous_degree() == 1


class TestParseAndFormat:
    def test_parse_example(self):
        f = parse_polynomial(R3, "3*x1^2*x2 + x3^3 - x2*x3^2")
        assert f.terms[(2, 1, 0)] == 3
        assert f.terms[(0, 0, 3)] == 1
        assert f.terms[(0, 1, 2)] == R3.p - 1

    def test_malformed_term(self):
        with pytest.raises(ValueError):
            parse_polynomial(R2, "x^")

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_polynomial(R2, "x3")

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_str_parse_round_trip(self, seed):
        rng = random.Random(seed)
        f = random_poly(R3, rng)
        assert parse_polynomial(R3, str(f)) == f
