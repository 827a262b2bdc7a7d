import random

import pytest
from hypothesis import given, settings, strategies as st

from regbound.groebner import (
    GenericityError,
    Ideal,
    IdealParseError,
    MonomialIdeal,
    _colon_general,
    colon,
    filter_regular_lsop,
    ideal_to_text,
    is_filter_regular,
    msaturate,
    parse_ideal_text,
    saturate,
)
from regbound.ring import PolyRing, Polynomial, parse_polynomial

R2 = PolyRing(2)
R3 = PolyRing(3)


from helpers import ideal, random_poly, structured_ideals


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        I = ideal(R2, "x1^2", "x2^2")
        assert {str(g) for g in I.groebner_basis()} == {"x1^2", "x2^2"}
        assert {str(g) for g in I.groebner_basis("lex")} == {"x1^2", "x2^2"}

    def test_s_polynomial_produces_cube(self):
        I = ideal(R2, "x1^2 - x2^2", "x1*x2")
        gb = {str(g) for g in I.groebner_basis()}
        assert "x2^3" in gb

    def test_zero_ideal(self):
        assert Ideal(R2, []).groebner_basis() == ()

    def test_reduced_basis_is_idempotent(self):
        I = ideal(R2, "x1^2 - x2^2", "x1*x2")
        gb = I.groebner_basis()
        again = Ideal(R2, list(gb)).groebner_basis()
        assert gb == again

    def test_every_spair_reduces_to_zero(self):
        I = ideal(R3, "x1^2 + x2*x3", "x2^2 - x3^2", "x1*x3")
        gb = I.groebner_basis()
        J = Ideal(R3, list(gb))
        from regbound.ring import mono_div, mono_lcm

        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                lti = gb[i].leading_monomial()
                ltj = gb[j].leading_monomial()
                lcm = mono_lcm(lti, ltj)
                s = (
                    Polynomial._raw(R3, {mono_div(lcm, lti): 1}) * gb[i]
                    - Polynomial._raw(R3, {mono_div(lcm, ltj): 1}) * gb[j]
                )
                assert J.normal_form(s).is_zero


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        I = ideal(R2, "x1^2 - x2^2", "x1*x2")
        f = parse_polynomial(R2, "x1^3 - x1*x2^2")
        assert I.normal_form(f).is_zero

    def test_untouched_when_no_reduction_applies(self):
        I = ideal(R2, "x1")
        f = parse_polynomial(R2, "x2^2")
        assert I.normal_form(f) == f

    def test_single_step(self):
        I = ideal(R2, "x1^2 - x2^2")
        assert I.normal_form(parse_polynomial(R2, "x1^2")) == parse_polynomial(R2, "x2^2")

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed):
        rng = random.Random(seed)
        I = ideal(R2, "x1^2 - x2^2", "x1*x2")
        f, g = random_poly(R2, rng), random_poly(R2, rng)
        assert I.normal_form(f + g) == I.normal_form(f) + I.normal_form(g)


class TestColon:
    def test_basic_example(self):
        I = ideal(R2, "x1^2", "x1*x2")
        assert colon(I, R2.variable(1)) == ideal(R2, "x1")

    def test_brute_force_membership_degree_two(self):
        I = ideal(R2, "x1^2", "x1*x2")
        Q = colon(I, R2.variable(1))
        x2 = R2.variable(1)
        for d in range(3):
            for m in R2.monomials_of_degree(d):
                f = Polynomial._raw(R2, {m: 1})
                assert Q.contains(f) == I.contains(f * x2)

    def test_colon_by_unit(self):
        I = ideal(R2, "x1^2", "x1*x2")
        assert colon(I, R2.one()) == I

    def test_principal_by_itself(self):
        I = ideal(R2, "x1")
        assert colon(I, R2.variable(0)) == Ideal(R2, [R2.one()])

    def test_colon_by_zero_rejected(self):
        with pytest.raises(ValueError):
            colon(ideal(R2, "x1"), R2.zero())

    def test_general_degree_matches_iterated_linear(self):
        # quotient by y^2 through the elimination path equals two linear steps
        for I in structured_ideals():
            ring = I.ring
            y = ring.variable(ring.n - 1)
            assert _colon_general(I, y * y) == colon(colon(I, y), y)

    def test_colon_contains_ideal(self):
        for I in structured_ideals():
            y = I.ring.variable(0)
            assert all(colon(I, y).contains(g) for g in I.generators)

    def test_equality_iff_nonzerodivisor(self):
        I = ideal(R2, "x1^2 - x2^2")  # complete intersection: x1 is regular
        assert colon(I, R2.variable(0)) == I
        J = ideal(R2, "x1*x2")  # x1 is a zerodivisor
        assert colon(J, R2.variable(0)) != J


class TestSaturate:
    def test_basic_example(self):
        I = ideal(R2, "x1^2", "x1*x2")
        assert saturate(I, R2.variable(1)) == ideal(R2, "x1")

    def test_fixed_point(self):
        I = ideal(R2, "x1")
        assert saturate(I, R2.variable(1)) == I

    def test_principal_monomial(self):
        I = ideal(R2, "x1*x2")
        assert saturate(I, R2.variable(1)) == ideal(R2, "x1")

    def test_matches_msaturate_where_the_colon_chain_is_long(self):
        # the colon chain's generator degrees fall while it grows, which once
        # made a per-step cap raise a false InternalLimitError here
        I = ideal(R3, "x1^2", "x1*x2^3", "x1*x3^3")
        assert saturate(I, parse_polynomial(R3, "x1 + x2 + x3")) == msaturate(I)

    def test_saturation_index_above_the_taylor_cap(self):
        # over F_5 the chain I : y^k grows until k = 10, past
        # taylor_cap(in(I)) + 1 = 7, for this y that is not filter-regular
        ring = PolyRing(3, 5)
        f = (
            "-x1^4 + x1^3*x2 - 2*x1^2*x2^2 - x1*x2^3 - x2^4 - x1^3*x3"
            " + x1^2*x2*x3 - x1^2*x3^2 - x1*x2*x3^2 + x2^2*x3^2 - x1*x3^3"
            " - x2*x3^3 - x3^4"
        )
        I = ideal(ring, "x2^3*x3", f)
        y = parse_polynomial(ring, "x1 - x3")
        S = saturate(I, y)
        assert colon(S, y) == S
        assert S == _colon_general(I, y**10) != _colon_general(I, y**9)


class TestMSaturate:
    def test_strips_embedded_component(self):
        I = ideal(R2, "x1^2", "x1*x2")
        assert msaturate(I) == ideal(R2, "x1")

    def test_saturated_ideals_are_fixed(self):
        for I in [ideal(R2, "x1*x2"), ideal(R3, "x1*x2", "x1*x3"), ideal(R2, "x1")]:
            assert msaturate(I) == I

    def test_variable_times_maximal_ideal(self):
        I = ideal(R3, "x1^2", "x1*x2", "x1*x3")
        assert msaturate(I) == ideal(R3, "x1")

    def test_idempotent_and_contains(self):
        for I in structured_ideals():
            S = msaturate(I)
            assert all(S.contains(g) for g in I.generators)
            assert msaturate(S) == S


class TestFilterRegular:
    def test_finite_annihilator(self):
        I = ideal(R2, "x1^2", "x1*x2")
        assert is_filter_regular(I, R2.variable(1))

    def test_regular_element_on_prime(self):
        assert is_filter_regular(ideal(R2, "x1"), R2.variable(1))

    def test_infinite_annihilator(self):
        assert not is_filter_regular(ideal(R2, "x1"), R2.variable(0))

    def test_rejects_zero_and_higher_degree(self):
        I = ideal(R2, "x1")
        with pytest.raises(ValueError):
            is_filter_regular(I, R2.zero())
        with pytest.raises(ValueError):
            is_filter_regular(I, parse_polynomial(R2, "x2^2"))


class TestFilterRegularLsop:
    def test_artinian_gives_empty(self):
        I = ideal(R2, "x1^2", "x2^2")
        assert filter_regular_lsop(I, seed=1) == []

    def test_principal_linear(self):
        from regbound.hilbert import dim_and_height

        I = ideal(R2, "x1")
        ys = filter_regular_lsop(I, seed=3)
        assert len(ys) == 1
        assert dim_and_height(I.plus(*ys))[0] == 0

    def test_embedded_case_verified(self):
        I = ideal(R2, "x1^2", "x1*x2")
        (y,) = filter_regular_lsop(I, seed=4)
        assert is_filter_regular(I, y)

    def test_genericity_failure_over_tiny_field(self):
        ring = PolyRing(2, 2)
        # every nonzero linear form over F_2 divides x1*x2*(x1+x2)
        I = Ideal(ring, [parse_polynomial(ring, "x1^2*x2 + x1*x2^2")])
        with pytest.raises(GenericityError):
            filter_regular_lsop(I, seed=0, max_retries=16)

    def test_saturation_identity_along_lsop(self):
        for I in structured_ideals():
            from regbound.hilbert import dim_and_height

            d, _ = dim_and_height(I)
            if d < 1:
                continue
            ys = filter_regular_lsop(I, seed=11)
            current = I
            for i in range(d):
                assert msaturate(current) == saturate(current, ys[i])
                current = current.plus(ys[i])


class TestAgainstSympy:
    """Cross-validate the engine against an independent implementation."""

    @staticmethod
    def _sympy_basis(gens, ring, order):
        import sympy as sp

        sym_order = {"degrevlex": "grevlex", "lex": "lex"}[order]
        Rs, *xs = sp.ring(",".join(ring.variable_names), sp.GF(ring.p), sym_order)

        def up(f):
            out = Rs.zero
            for m, c in f.terms.items():
                term = Rs.ground_new(c)
                for v, e in zip(xs, m):
                    term *= v**e
                out += term
            return out

        from sympy.polys.groebnertools import groebner as sympy_groebner

        basis = sympy_groebner([up(g) for g in gens], Rs)
        return sorted(
            [{tuple(int(e) for e in m): int(c) for m, c in g.terms()} for g in basis],
            key=lambda d: sorted(d),
        )

    def test_random_bases_match(self):
        import random

        from regbound.fuzz import random_homogeneous_form

        rng = random.Random(4)
        for order in ("degrevlex", "lex"):
            for _ in range(8):
                n = rng.randint(2, 3)
                ring = PolyRing(n)
                gens = [
                    random_homogeneous_form(ring, rng, rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))
                ]
                mine = sorted(
                    [dict(f.terms) for f in Ideal(ring, gens).groebner_basis(order)],
                    key=lambda d: sorted(d),
                )
                assert mine == self._sympy_basis(gens, ring, order)

    def test_structured_bases_match(self):
        for I in structured_ideals():
            mine = sorted(
                [dict(f.terms) for f in I.groebner_basis()], key=lambda d: sorted(d)
            )
            assert mine == self._sympy_basis(I.generators, I.ring, "degrevlex")


class TestMinimalGenerators:
    def test_redundant_within_and_across_degrees(self):
        # sorted by (degree, degrevlex leading monomial), ties in input order:
        # x1*x2, x1^2, x1^2 + 3*x1*x2 | x1^2*x3 | x2^3
        I = ideal(R3, "x1^2", "x1*x2", "x1^2 + 3*x1*x2", "x1^2*x3", "x2^3")
        assert [str(g) for g in I.minimal_generators()] == ["x1*x2", "x1^2", "x2^3"]

    def test_redundancy_seen_only_through_an_s_pair(self):
        # x2^3 = x1*(x1*x2) - x2*(x1^2 - x2^2) and x1^3 = x1*(x1^2 - x2^2) + x2*(x1*x2):
        # both follow from the degree-3 S-pair of the two quadrics
        I = ideal(R2, "x2^3", "x1^3", "x1^2 - x2^2", "x1*x2")
        assert [str(g) for g in I.minimal_generators()] == ["x1*x2", "x1^2 - x2^2"]
        assert I.max_generator_degree() == 2

    def test_zero_and_unit(self):
        assert Ideal(R2, []).minimal_generators() == ()
        assert [str(g) for g in ideal(R2, "x1", "1", "x2").minimal_generators()] == ["1"]

    @staticmethod
    def _count_runs(monkeypatch):
        from regbound import groebner

        calls = []
        real = groebner._buchberger_raw

        def counting(polys, key, p):
            calls.append(key)
            return real(polys, key, p)

        monkeypatch.setattr(groebner, "_buchberger_raw", counting)
        return calls

    def test_one_run_gives_basis_and_generators(self, monkeypatch):
        calls = self._count_runs(monkeypatch)
        I = ideal(R3, "x1^2", "x1*x2", "x1^2 + 3*x1*x2", "x1^2*x3", "x2^3")
        I.minimal_generators()
        I.groebner_basis()
        I.max_generator_degree()
        J = ideal(R3, "x1^2", "x1*x2", "x1^2 + 3*x1*x2", "x1^2*x3", "x2^3")
        J.groebner_basis()
        J.minimal_generators()
        assert len(calls) == 2
        assert I.minimal_generators() == J.minimal_generators()

    def test_analyze_runs_degrevlex_buchberger_once_per_ideal(self, monkeypatch):
        from regbound.bounds import analyze
        from regbound.ring import degrevlex_key

        calls = self._count_runs(monkeypatch)
        owners = []  # kept alive, so ids stay distinct
        real_run = Ideal._degrevlex_run

        def run(self):
            owners.append(self)
            real_run(self)

        monkeypatch.setattr(Ideal, "_degrevlex_run", run)
        I = ideal(R3, "x1^2", "x1*x2", "x1*x3", "x1^2 + x1*x2", "x2^3")
        analyze(I, seed=3, exact=True)
        assert owners and owners[0] is I
        assert len({id(J) for J in owners}) == len(owners)
        assert calls.count(degrevlex_key) == len(owners)

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_kept_subset_is_irredundant_and_generates(self, seed):
        from regbound.fuzz import random_homogeneous_form

        rng = random.Random(seed)
        ring = PolyRing(rng.randint(2, 3), rng.choice([5, 32003]))

        def form(d):
            if d == 0:
                return ring.one() * rng.randrange(1, ring.p)
            if rng.random() < 0.5:
                return Polynomial._raw(ring, {rng.choice(ring.monomials_of_degree(d)): 1})
            return random_homogeneous_form(ring, rng, d)

        gens = [form(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(gens), rng.choice(gens)
            da, db = a.homogeneous_degree(), b.homogeneous_degree()
            d = max(da, db) + rng.randint(0, 1)
            combo = form(d - da) * a + form(d - db) * b
            if not combo.is_zero:
                gens.append(combo)
        rng.shuffle(gens)
        I = Ideal(ring, gens)
        kept = I.minimal_generators()
        assert Ideal(ring, kept) == I
        for g in kept:
            rest = Ideal(ring, [h for h in kept if h is not g])
            assert not rest.contains(g)
        mine = sorted([dict(f.terms) for f in I.groebner_basis()], key=lambda d: sorted(d))
        assert mine == TestAgainstSympy._sympy_basis(I.generators, ring, "degrevlex")


class TestColonPathsAgree:
    def test_linear_form_through_both_routes(self):
        # the coordinate-change route and the elimination route compute the
        # same quotient for linear forms
        import random

        from regbound.ring import random_linear_form

        rng = random.Random(6)
        for I in structured_ideals():
            y = random_linear_form(I.ring, rng)
            assert _colon_general(I, y) == colon(I, y)
            for i in range(I.ring.n):
                v = I.ring.variable(i)
                assert _colon_general(I, v) == colon(I, v)


class TestRandomMonomialIdeals:
    """Random monomial ideals carry embedded components far more often than
    dense generic forms, so they stress the saturation machinery properly."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_saturation_and_length_identities(self, seed):
        import random

        from regbound.hilbert import dim_and_height, length_identity_sides

        rng = random.Random(seed)
        n = rng.randint(2, 3)
        ring = PolyRing(n)
        monos = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 3)
            monos.append(rng.choice(ring.monomials_of_degree(d)))
        gens = [Polynomial._raw(ring, {m: 1}) for m in monos]
        I = Ideal(ring, gens)
        if I.is_unit:
            return
        d, _ = dim_and_height(I)
        if d < 1:
            return
        ys = filter_regular_lsop(I, seed=seed)
        lhs, rhs = length_identity_sides(I, ys)
        assert lhs == rhs
        partial = I.plus(*ys[: d - 1]) if d > 1 else I
        assert msaturate(partial) == saturate(partial, ys[d - 1])

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_msaturate_agrees_in_high_degrees(self, seed):
        import random

        from regbound.hilbert import hilbert_function

        rng = random.Random(seed)
        ring = PolyRing(2)
        monos = [
            rng.choice(ring.monomials_of_degree(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        I = Ideal(ring, [Polynomial._raw(ring, {m: 1}) for m in monos])
        S = msaturate(I)
        for g in I.generators:
            assert S.contains(g)
        # quotients agree in all large degrees: the quotient of the two has
        # finite length
        for j in range(8, 12):
            assert hilbert_function(I, j) == hilbert_function(S, j)


class TestMonomialIdeal:
    def test_minimal_generators(self):
        M = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3)])
        assert M.gens == ((0, 3), (2, 0))

    def test_membership(self):
        M = MonomialIdeal(2, [(2, 0), (0, 3)])
        assert M.contains_monomial((3, 1))
        assert not M.contains_monomial((1, 2))


class TestIdealText:
    def test_round_trip(self):
        I = ideal(R3, "x1^2 + 5*x2*x3", "x3^3")
        J = parse_ideal_text(ideal_to_text(I))
        assert J == I
        assert J.generators == I.generators

    def test_parse_error_cites_line(self):
        text = "ring n=2 p=32003\nx1^2\nx^\n"
        with pytest.raises(IdealParseError) as err:
            parse_ideal_text(text)
        assert err.value.line == 3

    def test_missing_header(self):
        with pytest.raises(IdealParseError):
            parse_ideal_text("x1^2\n")

    def test_comments_and_blank_lines(self):
        text = "# a comment\nring n=2 p=32003\n\nx1^2  # trailing\n"
        I = parse_ideal_text(text)
        assert len(I.generators) == 1

    def test_inhomogeneous_rejected(self):
        with pytest.raises(IdealParseError):
            parse_ideal_text("ring n=2 p=32003\nx1^2 + x2\n")

    def test_default_prime_used_when_missing(self):
        I = parse_ideal_text("ring n=2\nx1\n", default_p=101)
        assert I.ring.p == 101
