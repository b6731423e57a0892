from itertools import groupby, islice

import pytest
from hypothesis import given, settings, strategies as st

from smoothwords import (
    Alphabet,
    ConstructionError,
    ResourceCapError,
    check_smooth_depth,
    coupled_pair_prefix,
    derive_f,
    is_r_smooth,
    kappa_prefix,
)
from smoothwords import generators
from smoothwords.generators import _STEP_RUNS, MAX_PREFIX_LETTERS

AB12 = Alphabet(1, 2)
AB13 = Alphabet(1, 3)
AB24 = Alphabet(2, 4)
AB25 = Alphabet(2, 5)

# 60-letter reference prefixes of the self-reading fixed points
REF_21 = "221121221221121122121121221121121221221121221211211221221121"
REF_31 = "333111333131333111333133313331113331313331113331333111333133"
REF_24 = "224422224444224422442222444422224444224422224444224422224444"
REF_25 = "225522222555552255225522555552222255555222225555522552222255"

# 67-letter reference prefixes of the coupled pair over {1,3}
REF_X = "1113111313111311131311131311131113131113111313111313111311131311131"
REF_Y = "3131113131113111313111313111311131311131113131113131113111313111313"


class TestKappa:
    def test_reference_prefixes(self):
        assert kappa_prefix(AB12, 60, start=2).render() == REF_21
        assert kappa_prefix(AB13, 60, start=3).render() == REF_31
        assert kappa_prefix(AB24, 60, start=2).render() == REF_24
        assert kappa_prefix(AB25, 60, start=2).render() == REF_25

    def test_start_with_smaller_letter_prepends_one_letter(self):
        assert kappa_prefix(AB12, 61, start=1).render() == "1" + REF_21

    def test_default_start_is_larger_letter(self):
        assert kappa_prefix(AB12, 60) == kappa_prefix(AB12, 60, start=2)

    def test_self_reading_invariant(self):
        # the exponent sequence of the stream equals the stream itself
        from itertools import groupby
        for ab, start in ((AB12, 2), (AB13, 3), (AB24, 2)):
            w = kappa_prefix(ab, 400, start=start)
            exps = [len(list(g)) for _, g in groupby(w.letters)]
            exps = exps[:-1]  # final run may be mid-growth
            assert bytes(exps) == w.letters[:len(exps)]

    def test_derivation_fixed_point(self):
        # trimming the possibly unfinished final run, the derivative is a
        # prefix of the stream itself
        w = kappa_prefix(AB12, 300, start=2)
        trimmed = w.runs.runs[:-1]
        from smoothwords.words import RunFactorization
        u = RunFactorization(trimmed).reconstruct(AB12)
        d = derive_f(u)
        assert d.is_prefix_of(w)

    def test_prefixes_are_r_smooth(self):
        assert is_r_smooth(kappa_prefix(AB12, 500, start=2))
        assert is_r_smooth(kappa_prefix(AB13, 500, start=3))

    def test_no_small_period(self):
        for ab, start in ((AB12, 2), (AB12, 1), (AB24, 2), (AB24, 4)):
            s = kappa_prefix(ab, 5000, start=start).letters
            for p in range(1, 101):
                assert s[p:] != s[:-p], (ab, start, p)


def kappa_letters(alphabet, start):
    """Reference for `kappa_prefix`: the fixed point one letter at a time.

    A read cursor walks the emitted letters; each value read is the exponent
    of the next run, and when the cursor reaches the write position the
    exponent is the letter about to be written.
    """
    seq = bytearray()
    letter = start
    read = 0
    while True:
        exp = seq[read] if read < len(seq) else letter
        read += 1
        for _ in range(exp):
            seq.append(letter)
            yield letter
        letter = alphabet.other(letter)


def run_exponents(letters):
    """Exponents of the complete runs; the final run may still be growing."""
    return bytes([len(list(g)) for _, g in groupby(letters)][:-1])


class TestKappaAcrossSteps:
    @pytest.mark.parametrize("a, b", [(1, 2), (1, 3), (2, 5), (1, 12),
                                      (100, 255)])
    def test_matches_letter_by_letter_reference(self, a, b):
        # runs are at most b letters long, so this prefix spans four steps
        ab = Alphabet(a, b)
        n = 4 * _STEP_RUNS * b + 5_000
        for start in (a, b):
            expected = bytes(islice(kappa_letters(ab, start), n))
            assert kappa_prefix(ab, n, start=start).letters == expected, start

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_short_steps_spell_the_same_words(self, monkeypatch, step):
        # a step may end on either run parity and at any source length
        expected = {ab: (kappa_prefix(ab, 3000, start=ab.a),
                         kappa_prefix(ab, 3000, start=ab.b))
                    for ab in (AB12, AB25, Alphabet(1, 12))}
        pair = coupled_pair_prefix(AB13, 3000)
        monkeypatch.setattr(generators, "_STEP_RUNS", step)
        for ab, (from_a, from_b) in expected.items():
            assert kappa_prefix(ab, 3000, start=ab.a) == from_a
            assert kappa_prefix(ab, 3000, start=ab.b) == from_b
        assert coupled_pair_prefix(AB13, 3000) == pair

    def test_a_step_without_unread_exponents_starves(self):
        with pytest.raises(ConstructionError, match="starved"):
            generators._extend(bytearray([1, 2]), 2, bytearray([1, 2]), 1, 2)


class TestCoupledPair:
    def test_reference_pair(self):
        x, y = coupled_pair_prefix(AB13, 67)
        assert x.render() == REF_X
        assert y.render() == REF_Y

    def test_avoids_double_large_letter(self):
        x, y = coupled_pair_prefix(AB13, 2000)
        assert "33" not in x.render()
        assert "33" not in y.render()

    def test_mutual_reading(self):
        # x's run exponents spell y, and y's run exponents spell x
        from itertools import groupby
        x, y = coupled_pair_prefix(AB13, 3000)
        x_exps = bytes([len(list(g)) for _, g in groupby(x.letters)][:-1])
        y_exps = bytes([len(list(g)) for _, g in groupby(y.letters)][:-1])
        assert x_exps == y.letters[:len(x_exps)]
        assert y_exps == x.letters[:len(y_exps)]

    @pytest.mark.parametrize("b", [5, 9, 255])
    def test_mutual_reading_across_steps(self, b):
        x, y = coupled_pair_prefix(Alphabet(1, b), 100_000)
        assert (x.letters[0], y.letters[0]) == (1, b)
        x_exps, y_exps = run_exponents(x.letters), run_exponents(y.letters)
        assert len(x_exps) > _STEP_RUNS or len(y_exps) > _STEP_RUNS
        assert x_exps == y.letters[:len(x_exps)]
        assert y_exps == x.letters[:len(y_exps)]

    def test_requires_one_and_odd_partner(self):
        with pytest.raises(ValueError):
            coupled_pair_prefix(AB24, 10)
        with pytest.raises(ValueError):
            coupled_pair_prefix(AB12, 10)


class TestNegativeLength:
    def test_kappa_rejects_negative_length(self):
        with pytest.raises(ValueError, match="nonnegative"):
            kappa_prefix(AB12, -3)
        assert kappa_prefix(AB12, 0) == AB12.empty()

    def test_pair_rejects_negative_length(self):
        with pytest.raises(ValueError, match="nonnegative"):
            coupled_pair_prefix(AB13, -1)
        assert coupled_pair_prefix(AB13, 0) == (AB13.empty(), AB13.empty())


class TestLengthCap:
    def test_length_above_cap_is_refused(self):
        with pytest.raises(ResourceCapError):
            kappa_prefix(AB12, MAX_PREFIX_LETTERS + 1)
        with pytest.raises(ResourceCapError):
            coupled_pair_prefix(AB13, MAX_PREFIX_LETTERS + 1)


class TestDepthCheck:
    def test_alternating_word_fails_at_depth_two(self):
        alt = AB12.word("12" * 10)
        assert check_smooth_depth(alt, 1)
        assert not check_smooth_depth(alt, 2)

    def test_reference_prefix_passes_depth_four(self):
        k = kappa_prefix(AB12, 200, start=2)
        assert check_smooth_depth(k, 4)

    def test_empty_fails(self):
        assert not check_smooth_depth(AB12.empty(), 1)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=60)
def test_kappa_prefix_consistency(n):
    # prefixes of increasing length agree letter for letter
    long = kappa_prefix(AB12, 400, start=2)
    assert kappa_prefix(AB12, n, start=2) == long[:n]
