from itertools import groupby, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from smoothwords import (
    Alphabet,
    ConstructionError,
    ResourceCapError,
    UsageError,
    build_smooth_from_r,
    check_smooth_depth,
    coupled_pair_prefix,
    derive_f,
    derive_r,
    embed_left,
    enumerate_f_smooth,
    is_f_smooth,
    is_r_smooth,
    kappa_prefix,
)
from smoothwords import generators
from smoothwords.derivation import _R, _is_smooth_bytes
from smoothwords.generators import _STEP_RUNS, MAX_PREFIX_LETTERS, _r_smooth_prefix
from test_words import spell_by_loop

AB12 = Alphabet(1, 2)
AB13 = Alphabet(1, 3)
AB14 = Alphabet(1, 4)
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

    def test_greedy_rejects_negative_length(self):
        seed = AB12.word("221")
        with pytest.raises(ValueError, match="nonnegative"):
            build_smooth_from_r(seed, -1)
        # a length the seed already reaches leaves it as it is
        for n in range(len(seed) + 1):
            assert build_smooth_from_r(seed, n) == seed


class TestLengthCap:
    def test_length_above_cap_is_refused(self):
        with pytest.raises(ResourceCapError):
            kappa_prefix(AB12, MAX_PREFIX_LETTERS + 1)
        with pytest.raises(ResourceCapError):
            coupled_pair_prefix(AB13, MAX_PREFIX_LETTERS + 1)

    def test_greedy_length_above_cap_is_refused_before_the_seed_is_read(self):
        with pytest.raises(ResourceCapError, match="above cap"):
            build_smooth_from_r(AB12.word("2221"), MAX_PREFIX_LETTERS + 1)


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

    def test_negative_depth_is_refused(self):
        # it read as depth 0, which every word survives
        for depth in (-1, -3):
            with pytest.raises(UsageError, match="depth must be nonnegative"):
                check_smooth_depth(AB12.word("12"), depth)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=60)
def test_kappa_prefix_consistency(n):
    # prefixes of increasing length agree letter for letter
    long = kappa_prefix(AB12, 400, start=2)
    assert kappa_prefix(AB12, n, start=2) == long[:n]


class TestEmbedLeft:
    @pytest.mark.parametrize("ab,max_len", [(AB12, 10), (AB13, 8), (AB14, 8)])
    def test_witness_everywhere(self, ab, max_len):
        for n in range(max_len + 1):
            for w in enumerate_f_smooth(ab, n):
                wit = embed_left(w)
                assert wit.combined.letters.endswith(w.letters)
                assert is_r_smooth(wit.combined)
                assert len(wit.left_extension) >= ab.a + ab.b
                assert wit.left_extension + w == wit.combined

    def test_rejects_non_smooth(self):
        with pytest.raises(ValueError,
                           match="is not f-smooth; embedding undefined"):
            embed_left(AB12.word("12121"))

    @pytest.mark.parametrize("ab, max_len", [
        (AB14, 9), (Alphabet(2, 5), 12), (Alphabet(1, 255), 0)])
    def test_combined_matches_the_run_loop(self, ab, max_len):
        words = [w for n in range(max_len + 1) for w in enumerate_f_smooth(ab, n)]
        # one letter, then a run of the other letter of every exponent up to b
        words += [ab.word(bytes([x]) + bytes([ab.other(x)]) * e)
                  for x in (ab.a, ab.b) for e in range(1, ab.b + 1)]
        between = 0
        for w in words:
            assert embed_left(w).combined.letters == embed_by_loop(w)
            between += bool(w) and ab.a < w.runs[-1].exponent < ab.b
        assert between >= ab.b - ab.a - 1


def embed_by_loop(word):
    """Reference for `embed_left`'s combined word: the same recursion along
    the derivative chain, with runs counted by `groupby` and spelled one at
    a time."""
    ab = word.alphabet
    a, b = ab.a, ab.b
    chain = is_f_smooth(word).chain
    combined = bytes([a]) * b + bytes([b]) * a
    for u, d in zip(reversed(chain[:-1]), reversed(chain[1:])):
        exps = [len(list(g)) for _, g in groupby(u.letters)]
        exponents = (combined[: len(combined) - len(d)]
                     + bytes([b] if exps[0] > a else []) + bytes(exps[1:]))
        anchor = len(exponents) - len(exps)  # the run absorbing u's first run
        first = u.letters[0] if anchor % 2 == 0 else ab.other(u.letters[0])
        combined = spell_by_loop(exponents, first, ab.other(first))
    return combined


class TestGreedyBuilder:
    def test_extends_to_length(self):
        cases = ((embed_left(AB12.word("221121221")).combined, 50),
                 (AB12.word("2"), 80))
        for seed, n in cases:
            ext = build_smooth_from_r(seed, n)
            assert len(ext) == n
            assert seed.is_prefix_of(ext)
            assert all(is_r_smooth(ext[:k]) for k in range(len(ext) + 1))

    def test_rejects_bad_seed(self):
        for text in ("2221", "12121", "112122121"):
            assert not is_r_smooth(AB12.word(text))
            with pytest.raises(ValueError, match=rf"^seed '{text}' is not r-smooth$"):
                build_smooth_from_r(AB12.word(text), 10)



@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.sampled_from(enumerate_f_smooth(AB13, n) or [AB13.empty()])))
@settings(max_examples=150)
def test_r_smooth_from_embedding_survives_right_derivation(w):
    combined = embed_left(w).combined
    u = combined
    while len(u):
        assert is_r_smooth(u)
        u = derive_r(u)


# Every word up to 12 letters over the first three alphabets, and up to 10
# over the rest.
STACK_SWEEP = [(1, 2, 12), (1, 3, 12), (2, 3, 12), (1, 4, 10), (2, 4, 10),
               (2, 5, 10), (1, 6, 10), (3, 5, 10)]


class TestRSmoothPrefix:
    """The stack of right derivatives against the chain, which derives
    each word from scratch."""

    @pytest.mark.parametrize("a, b, n", STACK_SWEEP)
    def test_every_prefix_of_every_short_word(self, a, b, n):
        longest = {b"": 0}
        for k in range(1, n + 1):
            for letters in map(bytes, product((a, b), repeat=k)):
                if _is_smooth_bytes(letters, a, b, _R):
                    longest[letters] = k
                else:
                    longest[letters] = longest[letters[:-1]]
                assert _r_smooth_prefix(letters, a, b, []) == longest[letters]

    @pytest.mark.parametrize("c", [1, 255])
    def test_a_run_dies_past_b(self, c):
        run = bytes([c]) * 256
        assert _r_smooth_prefix(run, 1, 255, []) == 255
        for e in range(1, 257):
            assert (_is_smooth_bytes(run[:e], 1, 255, _R)
                    == (_r_smooth_prefix(run[:e], 1, 255, []) == e))


def greedy_by_chain(seed, length):
    """Reference for `build_smooth_from_r`: each letter is tried by deriving
    the whole longer word down its right-derivative chain."""
    a, b = seed.alphabet.a, seed.alphabet.b
    letters = seed.letters
    while len(letters) < length:
        letters += next(bytes([c]) for c in (a, b)
                        if _is_smooth_bytes(letters + bytes([c]), a, b, _R))
    return letters


class TestGreedyAgainstChain:
    def test_extends_every_embedded_word_like_the_chain(self):
        # the seeds of the left-embedding check in `verify`
        for ab in (AB12, AB13, AB14):
            for n in range(11):
                for u in enumerate_f_smooth(ab, n):
                    seed = embed_left(u).combined
                    length = len(seed) + 50
                    assert (build_smooth_from_r(seed, length).letters
                            == greedy_by_chain(seed, length))

    @pytest.mark.parametrize("ab", [AB12, AB25])
    def test_extends_kappa_prefixes_like_the_chain(self, ab):
        for start in (ab.a, ab.b):
            for n in range(0, 301, 20):
                seed = kappa_prefix(ab, n, start=start)
                assert (build_smooth_from_r(seed, n + 40).letters
                        == greedy_by_chain(seed, n + 40))

    def test_long_extension_stays_r_smooth(self):
        word = build_smooth_from_r(AB12.word("2"), 20_000)
        assert len(word) == 20_000 and word.letters[0] == 2
        assert is_r_smooth(word)
