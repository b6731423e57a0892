import math
from fractions import Fraction

import pytest

from smoothwords import (
    Alphabet,
    NotPrimitiveError,
    ResourceCapError,
    build_matrices,
    exponent_report,
    generation_stats,
    lambda_of,
    lower_bound_constants,
    max_length_growth_radius,
    minimal_length_sequence,
    primitive,
    spectral_radius,
)
from smoothwords.errors import MAX_GENERATION
from smoothwords.spectral import mat_mul, mat_vec, vec_add

AB13 = Alphabet(1, 3)
AB35 = Alphabet(3, 5)


class TestBuildMatrices:
    def test_rejects_non_odd(self):
        with pytest.raises(ValueError):
            build_matrices(Alphabet(1, 2))
        with pytest.raises(ValueError):
            build_matrices(Alphabet(2, 4))

    def test_entries_over_1_3(self):
        mats = build_matrices(AB13)
        assert mats.m == (
            (0, 0, 1, 0),
            (1, 0, 2, 0),
            (0, 1, 0, 2),
            (0, 0, 0, 1),
        )
        assert mats.n == (0, 1, 1, 0)
        assert mats.r == (
            (0, 0, 1),
            (1, 0, 2),
            (0, 1, 0),
        )

    def test_r_absent_for_larger_a(self):
        assert build_matrices(AB35).r is None

    def test_entries_are_nonnegative_ints(self):
        for ab in (AB13, AB35, Alphabet(3, 7), Alphabet(5, 9)):
            mats = build_matrices(ab)
            rows = mats.m + (mats.n,) + (mats.r or ())
            entries = [e for row in rows for e in row]
            assert all(type(e) is int and e >= 0 for e in entries)

    def test_recurrence_on_random_even_length_words(self):
        import random
        rng = random.Random(20240816)
        for ab in (AB13, AB35):
            mats = build_matrices(ab)
            for _ in range(100):
                n = rng.randrange(0, 13, 2)
                u = ab.word([rng.choice((ab.a, ab.b)) for _ in range(n)])
                pa = primitive(u, ab.a).parity_counts()
                assert pa == vec_add(mat_vec(mats.m, u.parity_counts()), mats.n)
                pb = primitive(u, ab.b).parity_counts()
                assert pb == mat_vec(mats.p, pa)

    def test_iterated_primitive_counts_match_power_sums(self):
        # counts of the i-fold primitive of the empty word equal sum M^j N
        mats = build_matrices(AB13)
        u = AB13.empty()
        v = (0,) * 4
        for _ in range(8):
            u = primitive(u, 1)
            v = vec_add(mat_vec(mats.m, v), mats.n)
            assert u.parity_counts() == v


class TestSpectralRadius:
    def test_r_matches_closed_form(self):
        for b in (3, 5, 7, 9):
            ab = Alphabet(1, b)
            mats = build_matrices(ab)
            lam = lambda_of(ab)
            assert abs(spectral_radius(mats.r) - lam) < 1e-8
            assert abs(lam - (1 + math.sqrt(2 * b - 1)) / 2) < 1e-12

    def test_m_matches_cubic_for_larger_a(self):
        for (a, b) in ((3, 5), (3, 7), (5, 7)):
            ab = Alphabet(a, b)
            mats = build_matrices(ab)
            lam = lambda_of(ab)
            assert abs(spectral_radius(mats.m) - lam) < 1e-8
            # characteristic factor: the dominant root satisfies the cubic
            assert abs(lam ** 3 - (a + b) / 2 * lam ** 2 + (b - a) ** 2 / 4) < 1e-6

    def test_quadratic_identity_for_a_one(self):
        for b in (3, 5, 7, 9):
            lam = lambda_of(Alphabet(1, b))
            assert abs(lam * lam - lam - (b - 1) / 2) < 1e-10

    def test_identity_matrix_is_not_primitive(self):
        with pytest.raises(NotPrimitiveError):
            spectral_radius(((1, 0), (0, 1)))

    def test_m_over_a_one_is_not_primitive(self):
        mats = build_matrices(AB13)
        with pytest.raises(NotPrimitiveError):
            spectral_radius(mats.m)

    def test_lambda_rejects_non_odd(self):
        with pytest.raises(ValueError):
            lambda_of(Alphabet(1, 2))

    def test_lambda_lies_in_the_bisection_bracket(self):
        # q(s - 1) = -(a - 1)(b - 1) < 0 < q(s) = (b - a)^2 / 4, s = (a + b) / 2
        for b in range(5, 256, 2):
            for a in range(3, b, 2):
                s = (a + b) // 2
                assert s - 1 < lambda_of(Alphabet(a, b)) < s, (a, b)


class TestMinimalLengths:
    def test_reference_sequence_over_1_3(self):
        assert minimal_length_sequence(AB13, 6) == [0, 2, 6, 12, 22, 38, 64]

    def test_refuses_a_count_above_its_cap_at_once(self):
        with pytest.raises(ResourceCapError):
            minimal_length_sequence(AB13, 10 ** 18)
        assert len(minimal_length_sequence(AB13, MAX_GENERATION)) == MAX_GENERATION + 1

    def test_matches_tree_enumeration(self):
        for ab, top in ((AB13, 8), (AB35, 6)):
            seq = minimal_length_sequence(ab, top)
            for i in range(top + 1):
                assert generation_stats(ab, "T", i).min_len == seq[i], (ab, i)


class TestLowerBoundConstants:
    def test_bound_holds_on_enumerated_generations(self):
        for ab, top in ((AB13, 12), (AB35, 8)):
            c, d = lower_bound_constants(ab)
            lam = lambda_of(ab)
            for i in range(top + 1):
                l_i = generation_stats(ab, "T", i).min_len
                assert l_i >= c * lam ** i - d - 1 - 1e-9, (ab, i)

    def test_bound_holds_exactly_on_odd_alphabets(self):
        # in rational arithmetic on the returned floats, including alphabets
        # whose lengths near 10^17 and beyond defeat a float comparison
        odd = [Alphabet(a, b) for b in range(3, 62, 2) for a in range(1, b, 2)]
        for ab in odd + [Alphabet(127, 255)]:
            c, d = lower_bound_constants(ab)
            lam = Fraction(lambda_of(ab))
            for i, l_i in enumerate(minimal_length_sequence(ab, 14)):
                assert l_i >= Fraction(c) * lam ** i - Fraction(d) - 1, (ab, i)

    def test_rejects_even_alphabet(self):
        with pytest.raises(ValueError):
            lower_bound_constants(Alphabet(2, 4))


class TestMaxLengthGrowth:
    def test_inequality_between_max_and_next_min(self):
        seq = minimal_length_sequence(AB13, 11)
        for i in range(5, 11):
            L_i = generation_stats(AB13, "T", i).max_len
            assert L_i > seq[i + 1], i

    def test_reference_values(self):
        assert generation_stats(AB13, "T", 5).max_len == 86
        assert minimal_length_sequence(AB13, 6)[6] == 64

    def test_radius_reported_raw(self):
        r = max_length_growth_radius(AB13)
        # dominant root of x^3 - 4x^2 - 4x - 1
        assert abs(r ** 3 - 4 * r ** 2 - 4 * r - 1) < 1e-6

    def test_product_is_reducible_over_1_3(self):
        mats = build_matrices(AB13)
        product = mat_mul(mat_mul(mats.m, mats.p), mats.m)
        with pytest.raises(NotPrimitiveError):
            spectral_radius(product)
        assert max_length_growth_radius(AB13) > 0


class TestExponentReport:
    def test_consecutive_pair(self):
        rep = exponent_report(Alphabet(1, 2))
        assert abs(rep.rho - math.log(3) / math.log(1.5)) < 1e-12
        assert rep.zeta is None and rep.growth_lambda is None

    def test_even_alphabet_zeta_absent(self):
        rep = exponent_report(Alphabet(2, 4))
        assert rep.zeta is None

    def test_zeta_formula_at_half_sum_reproduces_rho(self):
        # plugging lambda = (a+b)/2 into log(2 lambda)/log(lambda) gives back
        # log(a+b)/log((a+b)/2); this is how the even-alphabet bound is wired
        for (a, b) in ((1, 3), (2, 4), (3, 5), (2, 6)):
            rep = exponent_report(Alphabet(a, b))
            half = (a + b) / 2
            assert abs(math.log(2 * half) / math.log(half) - rep.rho) < 1e-12

    def test_lambda_two_gives_zeta_two(self):
        rep = exponent_report(Alphabet(1, 5))
        assert abs(rep.growth_lambda - 2) < 1e-12
        assert abs(rep.zeta - 2) < 1e-12

    def test_quarantined_exponent_strictness(self):
        for (a, b) in ((1, 2), (2, 3), (3, 4)):
            rep = exponent_report(Alphabet(a, b))
            assert abs(rep.rho_prime - rep.rho) < 1e-12
        for b in range(3, 13):
            for a in range(1, b - 1):
                rep = exponent_report(Alphabet(a, b))
                assert rep.rho_prime > rep.rho + 1e-9, (a, b)

    def test_rho_decreases_in_b(self):
        for a in (1, 2, 3):
            values = [exponent_report(Alphabet(a, b)).rho
                      for b in range(a + 1, 21)]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_c_constant(self):
        assert exponent_report(Alphabet(1, 3)).c_constant == 2.0
        assert exponent_report(Alphabet(1, 2)).c_constant == 4.0

    def test_formula_tags_present(self):
        rep = exponent_report(AB13)
        for key in ("rho", "alpha", "beta", "zeta", "growth_lambda",
                    "rho_prime", "c_constant"):
            assert key in rep.formulas

