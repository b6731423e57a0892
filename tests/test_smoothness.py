import re
from bisect import bisect_right
from itertools import count, product

import pytest
from hypothesis import given, settings, strategies as st

from smoothwords import (
    Alphabet,
    ResourceCapError,
    bispecial_multiplicity_sum,
    derive_f,
    enumerate_f_smooth,
    exact_complexity,
    f_smooth_count,
    is_f_smooth,
    is_r_smooth,
    left_extensions,
    right_extensions,
    tree_derived_complexity,
)
from smoothwords import smoothness
from smoothwords.derivation import _F, _is_smooth_bytes

AB12 = Alphabet(1, 2)
AB13 = Alphabet(1, 3)
AB14 = Alphabet(1, 4)


class TestIsFSmooth:
    def test_height_example(self):
        cert = is_f_smooth(AB12.word("221121221"))
        assert cert is not None
        assert cert.height == 4
        assert [w.render() for w in cert.chain] == [
            "221121221", "22112", "22", "2", ""]

    def test_empty_has_height_zero(self):
        cert = is_f_smooth(AB12.empty())
        assert cert is not None and cert.height == 0

    def test_non_smooth(self):
        assert is_f_smooth(AB12.word("12121")) is None
        # triple run over {1,2} dies immediately
        assert is_f_smooth(AB12.word("111")) is None

    def test_huang_divergence_word_is_not_smooth(self):
        u = AB14.word([4] * 4 + [1] * 4 + [4] * 4 + [1] * 4 + [4] * 3)
        assert is_f_smooth(u) is None


class TestIsRSmooth:
    def test_examples(self):
        assert is_r_smooth(AB12.word("211"))
        assert is_r_smooth(AB12.empty())
        assert not is_r_smooth(AB12.word("2221"))

    def test_prefix_closure_on_samples(self):
        w = AB12.word("21121221221121221")
        assert is_r_smooth(w)
        for k in range(len(w) + 1):
            assert is_r_smooth(w[:k])


class TestEnumeration:
    def test_counts_start(self):
        assert [f_smooth_count(AB12, n) for n in range(4)] == [1, 2, 4, 6]

    def test_level_three_words(self):
        got = [w.render() for w in enumerate_f_smooth(AB12, 3)]
        assert got == ["112", "121", "122", "211", "212", "221"]

    def test_lexicographic_order(self):
        for n in (4, 6):
            level = enumerate_f_smooth(AB13, n)
            assert level == sorted(level)

    def test_factorial_and_extendable(self):
        # every word at level n: all length-(n-1) factors are in the language
        # and both one-letter extensions exist on each side
        lower = {w.letters for w in enumerate_f_smooth(AB12, 5)}
        for w in enumerate_f_smooth(AB12, 6):
            assert w.letters[1:] in lower and w.letters[:-1] in lower
            assert left_extensions(w)
            assert right_extensions(w)

    def test_negative_length_is_refused(self):
        f_smooth_count(AB12, 10)  # a cached level must not answer for n < 0
        for n in (-1, -3):
            for count in (enumerate_f_smooth, f_smooth_count):
                with pytest.raises(ValueError, match="nonnegative"):
                    count(AB12, n)

    def test_every_enumerated_word_is_smooth(self):
        for n in range(7):
            for w in enumerate_f_smooth(AB14, n):
                assert is_f_smooth(w) is not None


def size(language):
    """An alphabet's share of the word budget: its states and kept level."""
    return len(language.letter) + len(language.states)


def columns(language):
    """Copies of everything an alphabet's automaton holds."""
    return [column[:] for column in (
        language.letter, language.exponent, language.inner, language.p,
        language.states, *language.child.values(),
        *language.opened.values())] + [
            language.n, language.words and language.words[:]]


class TestTrieAgainstOracle:
    """The spelled levels and the word budget against from-scratch
    derivation chains."""

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 4), (1, 4), (2, 5), (3, 5)])
    def test_every_word_filtered(self, a, b):
        ab = Alphabet(a, b)
        for n in range(15):
            expect = [bytes(w) for w in product((a, b), repeat=n)
                      if _is_smooth_bytes(bytes(w), a, b, _F)]
            assert [w.letters for w in enumerate_f_smooth(ab, n)] == expect, n

    @pytest.mark.parametrize("a,b", [(1, 255), (254, 255), (100, 255)])
    def test_long_words_over_wide_alphabets(self, a, b):
        # every word of length n extends one of length n - 1 (the language
        # is factorial), so filtering the extensions of the previous level
        # filters every word of length n
        ab = Alphabet(a, b)
        expect = [b""]
        for n in range(301):
            assert [w.letters for w in enumerate_f_smooth(ab, n)] == expect, n
            expect = [w + bytes([c]) for w in expect for c in (a, b)
                      if _is_smooth_bytes(w + bytes([c]), a, b, _F)]

    def test_node_budget_refuses_before_building(self, monkeypatch):
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        total = sum(f_smooth_count(AB12, k) for k in range(11))
        bound = 2 * f_smooth_count(AB12, 10)
        enumerate_f_smooth(AB12, 10)
        automaton = smoothness._LANGUAGES[AB12]
        before = columns(automaton)
        monkeypatch.setattr(smoothness, "WORD_BUDGET", total + bound - 1)
        for walk in (enumerate_f_smooth, f_smooth_count):
            with pytest.raises(ResourceCapError, match=re.escape(
                    f"level 11 of the f-smooth words over {{1,2}} could add "
                    f"{bound} words to {total}, above the budget of "
                    f"{total + bound - 1}")):
                walk(AB12, 11)
            assert smoothness._LANGUAGES == {AB12: automaton}
            assert columns(automaton) == before
        monkeypatch.setattr(smoothness, "WORD_BUDGET", total + bound)
        assert len(enumerate_f_smooth(AB12, 11)) == 62

    @pytest.mark.parametrize("limit", [3_000, 40_000])
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (1, 3), (2, 4), (3, 8),
                                     (1, 255), (254, 255)])
    def test_budget_decided_from_the_trees_matches_growth(self, monkeypatch,
                                                          a, b, limit):
        # the reference: levels grown one at a time by filtering every
        # extension, each checked before it is grown, until one is refused
        monkeypatch.setattr(smoothness, "WORD_BUDGET", limit)
        ab = Alphabet(a, b)
        words, total = [bytes([a]), bytes([b])], 3
        for level in count(2):
            try:
                smoothness._check_level(ab, level, total, len(words))
            except ResourceCapError as exc:
                refusal = str(exc)
                break
            words = [u for w in words for u in (w + bytes([a]), w + bytes([b]))
                     if _is_smooth_bytes(u, a, b, _F)]
            total += len(words)
        smoothness._check_budget(ab, level - 1)
        for n in (level, level + 1, 10 ** 9):
            with pytest.raises(ResourceCapError) as decided:
                smoothness._check_budget(ab, n)
            assert str(decided.value) == refusal

    @pytest.mark.parametrize("a,b,level", [(1, 2, 190), (1, 255, 894),
                                           (254, 255, 1679)])
    def test_first_refused_level(self, a, b, level):
        ab = Alphabet(a, b)
        smoothness._check_budget(ab, level - 1)
        with pytest.raises(ResourceCapError, match=f"^level {level} of "):
            smoothness._check_budget(ab, level)

    def test_interrupted_walk_leaves_no_automaton(self, monkeypatch):
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        enumerate_f_smooth(AB12, 12)
        enumerate_f_smooth(AB13, 10)
        other = smoothness._LANGUAGES[AB12]
        before = columns(other)
        step = smoothness._Automaton._step

        def interrupted(*args):  # once the level's new states are added
            step(*args)
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(smoothness._Automaton, "_step", interrupted)
            with pytest.raises(KeyboardInterrupt):
                enumerate_f_smooth(AB13, 11)
        assert smoothness._LANGUAGES == {AB12: other}
        assert columns(other) == before
        assert [w.letters for w in enumerate_f_smooth(AB13, 12)] == [
            bytes(w) for w in product((1, 3), repeat=12)
            if _is_smooth_bytes(bytes(w), 1, 3, _F)]

    def test_kept_levels_of_all_alphabets_share_the_budget(self, monkeypatch):
        ab23 = Alphabet(2, 3)
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        monkeypatch.setattr(smoothness, "WORD_BUDGET", 3_000)
        words = enumerate_f_smooth(AB12, 20)
        kept = smoothness._LANGUAGES[AB12]
        enumerate_f_smooth(ab23, 10)
        assert size(kept) + size(smoothness._LANGUAGES[ab23]) <= 3_000
        languages = dict(smoothness._LANGUAGES)
        levels = {ab: columns(x) for ab, x in languages.items()}
        # refused by the budget of {1,3} alone: nothing is evicted
        with pytest.raises(ResourceCapError, match=r"words over \{1,3\} could add"):
            enumerate_f_smooth(AB13, 40)
        assert smoothness._LANGUAGES == languages
        assert {ab: columns(x) for ab, x in languages.items()} == levels
        # admitted alone, but its states (a state a word at most) and its
        # level 30 could not fit beside {1,2}: spelling {2,3} evicts it
        p = smoothness._check_budget(ab23, 30)
        assert sum(p) + p[30] + size(kept) > 3_000
        enumerate_f_smooth(ab23, 30)
        assert list(smoothness._LANGUAGES) == [ab23]
        assert enumerate_f_smooth(AB12, 20) == words
        assert smoothness._LANGUAGES[AB12] is not kept

    def test_counts_share_the_budget(self, monkeypatch):
        ab23 = Alphabet(2, 3)
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        monkeypatch.setattr(smoothness, "WORD_BUDGET", 3_000)
        words = enumerate_f_smooth(AB12, 20)
        kept = smoothness._LANGUAGES[AB12]
        assert f_smooth_count(AB12, 20) == len(words)  # spelling counted it
        assert smoothness._LANGUAGES[AB12] is kept
        # {2,3}'s states (a state a word at most) and its level 29 fit
        # beside {1,2}'s states and level 20
        p = smoothness._check_budget(ab23, 30)
        assert sum(p[:30]) + p[29] + size(kept) <= 3_000
        f_smooth_count(ab23, 29)
        assert list(smoothness._LANGUAGES) == [AB12, ab23]
        assert size(kept) + size(smoothness._LANGUAGES[ab23]) <= 3_000
        languages = dict(smoothness._LANGUAGES)
        # counts are refused as spelling would be, evicting nothing
        with pytest.raises(ResourceCapError, match=r"words over \{1,3\} could add"):
            f_smooth_count(AB13, 40)
        assert smoothness._LANGUAGES == languages
        # admitted alone, but not with its level 30 beside {1,2}
        assert sum(p) + p[30] + size(kept) > 3_000
        f_smooth_count(ab23, 30)
        assert list(smoothness._LANGUAGES) == [ab23]
        assert smoothness._LANGUAGES[ab23].words is None  # not spelled

    def test_spelled_level_evicts_what_cannot_fit_beside_it(self, monkeypatch):
        ab23 = Alphabet(2, 3)
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        enumerate_f_smooth(AB12, 20)
        kept = smoothness._LANGUAGES[AB12]
        p = smoothness._check_budget(ab23, 31)
        # {2,3}'s states (a state a word at most) and its level 30 fit beside
        # {1,2}, counted or spelled alike, and not with its level 31 spelled
        limit = size(kept) + sum(p[:31]) + p[30]
        monkeypatch.setattr(smoothness, "WORD_BUDGET", limit)
        assert f_smooth_count(ab23, 30) == p[30]
        assert len(enumerate_f_smooth(ab23, 30)) == p[30]
        assert list(smoothness._LANGUAGES) == [AB12, ab23]
        assert smoothness._LANGUAGES[AB12] is kept
        assert size(smoothness._LANGUAGES[ab23]) <= sum(p[:31]) + p[30]
        assert sum(p) + p[31] + size(kept) > limit
        assert len(enumerate_f_smooth(ab23, 31)) == p[31]
        assert list(smoothness._LANGUAGES) == [ab23]

    def test_counts_spell_no_word(self, monkeypatch):
        walk = smoothness._Automaton.walk

        def counted(automaton, n, spelled):
            assert not spelled, "a word was spelled to count words"
            walk(automaton, n, spelled)

        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        monkeypatch.setattr(smoothness._Automaton, "walk", counted)
        for ab in (AB12, AB13, Alphabet(254, 255)):
            f_smooth_count(ab, 30)
            exact_complexity(ab, 60)
            assert smoothness._LANGUAGES[ab].words is None

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 255), (254, 255)])
    def test_spelled_level_resumes_or_starts_again(self, monkeypatch, a, b):
        # each level filters every extension of the one before it
        levels = [[b""]]
        for n in range(40):
            levels.append([w + bytes([c]) for w in levels[-1] for c in (a, b)
                           if _is_smooth_bytes(w + bytes([c]), a, b, _F)])
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        ab = Alphabet(a, b)
        for n in (20, 7, 21, 0, 40, 40, 39):
            assert [w.letters for w in enumerate_f_smooth(ab, n)] == levels[n], n
            automaton = smoothness._LANGUAGES[ab]
            assert automaton.words == levels[n]
            assert [automaton.letter[s] for s in automaton.states] == [
                w[-1] if w else 0 for w in levels[n]]

    def test_sums_after_a_table_check_no_budget(self, monkeypatch):
        checks = []
        check_budget = smoothness._check_budget

        def counted(alphabet, n):
            checks.append(n)
            return check_budget(alphabet, n)

        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        monkeypatch.setattr(smoothness, "_check_budget", counted)
        exact_complexity(AB12, 44)
        assert checks == [44]
        for n in range(25):
            bispecial_multiplicity_sum(AB12, n)
        enumerate_f_smooth(AB12, 3)
        assert checks == [44]
        bispecial_multiplicity_sum(AB12, 43)
        assert checks == [44, 45]

    @pytest.mark.parametrize("a,b,n", [(1, 2, 30), (1, 255, 50), (254, 255, 60)])
    def test_counts_after_spelling_walk_no_level(self, monkeypatch, a, b, n):
        steps = []
        step = smoothness._Automaton._step

        def counted(automaton, states, words):
            steps.append(len(states))
            return step(automaton, states, words)

        ab = Alphabet(a, b)
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        monkeypatch.setattr(smoothness._Automaton, "_step", counted)
        words = enumerate_f_smooth(ab, n)
        assert len(steps) == n
        assert f_smooth_count(ab, n) == len(words)
        assert tuple(f_smooth_count(ab, k) for k in range(n + 1)) == (
            tree_derived_complexity(ab, n).p)
        assert len(steps) == n
        # counting goes on from the spelled level; spelling the counted
        # level starts again from the empty word
        f_smooth_count(ab, n + 1)
        assert steps[n:] == [len(words)]
        enumerate_f_smooth(ab, n + 1)
        assert len(steps) == 2 * n + 2


class TestAutomatonAgainstOracle:
    """The automaton's counts against its spelled levels and from-scratch
    derivation."""

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
                                     (3, 8), (1, 255), (254, 255)])
    def test_walks_match_every_word_filtered(self, a, b):
        ab = Alphabet(a, b)
        counted, spelled = smoothness._Automaton(ab), smoothness._Automaton(ab)
        counted.walk(14, False)
        for n in range(15):
            expect = [bytes(w) for w in product((a, b), repeat=n)
                      if _is_smooth_bytes(bytes(w), a, b, _F)]
            spelled.walk(n, True)
            assert spelled.words == expect, n
            assert counted.p[n] == len(expect), n

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 255), (254, 255)])
    def test_counted_and_spelled_levels_keep_the_same_states(self, a, b):
        ab = Alphabet(a, b)
        counted, spelled = smoothness._Automaton(ab), smoothness._Automaton(ab)
        for n in range(41):
            counted.walk(n, False)
            spelled.walk(n, True)
            assert counted.states == spelled.states, n
            assert counted.words is None and len(spelled.words) == counted.p[n]
        assert spelled.p == counted.p

    @pytest.mark.parametrize("a,b,n", [
        (1, 2, 12), (1, 3, 12), (2, 4, 14), (1, 4, 12), (2, 5, 14), (3, 5, 14),
        (1, 255, 40), (254, 255, 40), (100, 255, 40)])
    def test_children_match_the_derivation(self, a, b, n):
        # for every word w of each level below n, on state s: the child of s
        # for x is a state, not 0, exactly when w + x is f-smooth
        ab = Alphabet(a, b)
        automaton = smoothness._Automaton(ab)
        for k in range(n):
            automaton.walk(k, True)
            states, words = automaton.states, automaton.words
            automaton.walk(k + 1, True)  # works out the states of level k
            for s, w in zip(states, words):
                for x in (a, b):
                    child = automaton.child[x][s]
                    smooth = is_f_smooth(ab.word(w + bytes((x,)))) is not None
                    assert (child != 0) == smooth, (w, x)
                    assert not child or automaton.letter[child] == x, (w, x)

    @pytest.mark.parametrize("a,b,n,made", [
        (1, 2, 60, 9_515), (1, 3, 60, 4_557), (2, 5, 70, 1_545),
        (254, 255, 400, 1_601), (100, 255, 300, 2_213)])
    def test_batches_work_out_only_the_walked_levels(self, monkeypatch, a, b,
                                                     n, made):
        starts, walked = [], set()
        grow, step = smoothness._Automaton._grow, smoothness._Automaton._step

        def grown(automaton):
            starts.append(len(automaton.child[a]))
            grow(automaton)

        def stepped(automaton, states, words):
            walked.update(states)
            return step(automaton, states, words)

        monkeypatch.setattr(smoothness._Automaton, "_grow", grown)
        monkeypatch.setattr(smoothness._Automaton, "_step", stepped)
        automaton = smoothness._Automaton(Alphabet(a, b))
        automaton.walk(n, False)
        # the states worked out are those of the levels below n, and the
        # states made are those and level n's
        assert len(automaton.letter) == made
        assert set(range(len(automaton.child[a]))) == walked
        assert len(automaton.child[b]) == len(automaton.child[a])
        assert walked | set(automaton.states) == set(range(made))
        # the inner state of each state past the empty word was worked out in
        # an earlier batch, the states past the watermark being the next one's
        starts.append(len(automaton.child[a]))
        batch = [bisect_right(starts, s) for s in range(made)]
        assert all(batch[d] < batch[s]
                   for s, d in enumerate(automaton.inner[1:], 1) if d >= 0)

    def test_counts_match_the_trees_to_150(self):
        automaton = smoothness._Automaton(AB12)
        automaton.walk(150, False)
        assert tuple(automaton.p) == tree_derived_complexity(AB12, 150).p


class TestCubeFree:
    def test_language_is_cube_free_up_to_len_12(self):
        cube = re.compile(rb"(.+)\1\1", re.S)
        assert cube.search(AB12.word("121212").letters)
        for n in range(13):
            for w in enumerate_f_smooth(AB12, n):
                assert not cube.search(w.letters), w.render()


@given(st.integers(min_value=0, max_value=9).flatmap(
    lambda n: st.sampled_from(enumerate_f_smooth(AB12, n) or [AB12.empty()])))
@settings(max_examples=150)
def test_derivative_of_smooth_is_smooth(w):
    cert = is_f_smooth(w)
    assert cert is not None
    if len(w):
        d = derive_f(w)
        inner = is_f_smooth(d)
        assert inner is not None
        assert inner.height == cert.height - 1
