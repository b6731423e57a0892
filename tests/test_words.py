import random
import re
from itertools import chain, groupby, product

import pytest
from hypothesis import example, given, strategies as st

from smoothwords import Alphabet, Parity, Word, kappa_prefix
from smoothwords import words
from smoothwords.errors import UsageError
from smoothwords.generators import _STEP_RUNS
from smoothwords.words import Run, _boundary_runs, _spell
from test_derivation import DIFFERENTIAL_ALPHABETS


def alphabets():
    return st.tuples(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=2, max_value=10),
    ).filter(lambda t: t[0] < t[1]).map(lambda t: Alphabet(*t))


def words_over(ab, max_len=40):
    return st.lists(
        st.sampled_from([ab.a, ab.b]), min_size=0, max_size=max_len
    ).map(ab.word)


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet(2, 2)
        with pytest.raises(ValueError):
            Alphabet(0, 3)
        with pytest.raises(ValueError):
            Alphabet(3, 1)

    def test_parity(self):
        assert Alphabet(2, 4).parity is Parity.EVEN
        assert Alphabet(1, 3).parity is Parity.ODD
        assert Alphabet(1, 2).parity is Parity.MIXED

    def test_other(self):
        ab = Alphabet(1, 2)
        assert ab.other(1) == 2
        assert ab.other(2) == 1
        with pytest.raises(ValueError):
            ab.other(3)

    def test_str(self):
        assert str(Alphabet(1, 2)) == "{1,2}"

    def test_word_parsing_digits(self):
        ab = Alphabet(1, 2)
        assert ab.word("2211").letters == bytes([2, 2, 1, 1])
        assert ab.word("").letters == b""
        assert ab.word(ab.word("2211")) == ab.word("2211")

    def test_word_parsing_commas(self):
        ab = Alphabet(2, 12)
        w = ab.word("12,2,12")
        assert w.letters == bytes([12, 2, 12])
        assert w.render() == "12,2,12"

    def test_word_rejects_foreign_letters(self):
        ab = Alphabet(1, 2)
        with pytest.raises(ValueError):
            ab.word("123")
        with pytest.raises(UsageError, match=r"^letter 3 not in alphabet \{1,2\}$"):
            ab.word(Alphabet(1, 3).word("113"))
        with pytest.raises(ValueError, match=r"^letter 4 not in alphabet \{1,2\}$"):
            Word(ab, bytes([1, 2, 4, 3, 2]))
        # bytes() would read True and False as the letters 1 and 0
        for letters, bad in (([True, 2], True), ((1, False), False),
                             (iter([2, True]), True)):
            with pytest.raises(ValueError,
                               match=rf"^letter {bad} not in alphabet \{{1,2\}}$"):
                ab.word(letters)

    def test_word_refuses_letters_that_are_not_bytes(self):
        # a bytearray would give a mutable, unhashable word; the others would
        # fail inside the letter check with an error that is not a UsageError
        ab = Alphabet(1, 2)
        for letters in (bytearray(b"\2\2\1\1"), [2, 2, 1, 1], "2211",
                        memoryview(b"\2\2\1\1")):
            with pytest.raises(UsageError, match=(
                    f"^word letters must be bytes, got {type(letters).__name__}$")):
                Word(ab, letters)


class TestWord:
    def test_runs_roundtrip_example(self):
        ab = Alphabet(1, 2)
        w = ab.word("221121221")
        runs = w.runs
        assert runs.exponents() == (2, 2, 1, 1, 2, 1)
        assert [r.letter for r in runs] == [2, 1, 2, 1, 2, 1]
        assert runs.reconstruct(ab) == w
        assert len(w.runs) == 6

    def test_complement(self):
        ab = Alphabet(1, 3)
        assert ab.word("1331").complement() == ab.word("3113")

    def test_equal_alphabets_share_one_swap_table(self):
        words._swap_table.cache_clear()
        for ab in (Alphabet(1, 3), Alphabet(1, 3)):
            assert ab.word("13").complement() == ab.word("31")
        info = words._swap_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_reversal(self):
        ab = Alphabet(1, 2)
        assert ab.word("112").reversal() == ab.word("211")

    def test_slicing_returns_word(self):
        ab = Alphabet(1, 2)
        w = ab.word("12212")
        assert isinstance(w[1:3], Word)
        assert w[1:3].render() == "22"
        assert w[0] == 1

    def test_concat_and_extend(self):
        ab = Alphabet(1, 2)
        assert (ab.word("12") + ab.word("21")).render() == "1221"

    def test_an_operand_that_is_not_a_word_raises_type_error(self):
        w = Alphabet(1, 2).word("12")
        for other in ("1", b"\x01", 1, None):
            with pytest.raises(TypeError):
                w + other
            with pytest.raises(TypeError):
                w < other
            with pytest.raises(TypeError):
                w <= other

    def test_prefix(self):
        ab = Alphabet(1, 2)
        assert ab.word("12").is_prefix_of(ab.word("122"))
        assert not ab.word("21").is_prefix_of(ab.word("122"))
        assert ab.empty().is_prefix_of(ab.word("1"))

    def test_parity_counts_positions_are_one_based(self):
        ab = Alphabet(1, 3)
        # word 1 3 3 1: letter a at positions 1, 4; letter b at 2, 3
        v = ab.word("1331").parity_counts()
        assert v.a_odd == 1 and v.a_even == 1
        assert v.b_odd == 1 and v.b_even == 1
        # word 3 3: letter b at positions 1 (odd) and 2 (even)
        v2 = ab.word("33").parity_counts()
        assert (v2.a_even, v2.a_odd, v2.b_even, v2.b_odd) == (0, 0, 1, 1)

    def test_ordering_is_lexicographic(self):
        ab = Alphabet(1, 2)
        assert ab.word("112") < ab.word("12")
        assert ab.word("12") < ab.word("121")


@given(alphabets().flatmap(lambda ab: words_over(ab)))
def test_runs_reconstruct_roundtrip(w):
    assert w.runs.reconstruct(w.alphabet) == w


@given(alphabets().flatmap(lambda ab: words_over(ab)))
def test_complement_involution(w):
    assert w.complement().complement() == w


@given(alphabets().flatmap(lambda ab: words_over(ab)))
def test_reversal_involution(w):
    assert w.reversal().reversal() == w


@given(alphabets().flatmap(lambda ab: words_over(ab)))
def test_parity_counts_total(w):
    v = w.parity_counts()
    assert v.total == len(w)
    assert v.a_even + v.a_odd == w.count(w.alphabet.a)
    assert v.b_even + v.b_odd == w.count(w.alphabet.b)


@given(alphabets().flatmap(lambda ab: words_over(ab, max_len=25)))
def test_render_parse_roundtrip(w):
    assert w.alphabet.word(w.render()) == w


@pytest.mark.parametrize("a, b", [(1, 2), (1, 9), (2, 12), (254, 255)])
def test_render_matches_the_letter_loop(a, b):
    # digits at C speed below 10, comma-separated letters from 10 on
    ab = Alphabet(a, b)
    sep = "" if b < 10 else ","
    for n in range(11):
        for letters in map(bytes, product((a, b), repeat=n)):
            assert Word(ab, letters).render() == sep.join(str(x) for x in letters)


def spell_by_loop(exponents, first, second):
    """Reference for `_spell`: one run per exponent, letters alternating."""
    out = bytearray()
    letter = first
    for e in exponents:
        out += bytes([letter]) * e
        letter = second if letter == first else first
    return bytes(out)


@pytest.mark.parametrize("first, second", [
    (1, 2), (2, 1), (1, 3), (2, 4), (2, 5), (1, 255), (255, 1), (254, 255),
    (255, 254), (100, 255), (7, 200)])
def test_spell_matches_loop(first, second):
    rng = random.Random(first * 256 + second)
    # odd and even run counts, including none, then one step of a
    # self-reading generator plus one run, and a long word
    for n in chain(range(66), (_STEP_RUNS + 1, 10**5)):
        exponents = bytes(rng.choice((first, second)) for _ in range(n))
        spelled = _spell(exponents, first, second)
        assert spelled == spell_by_loop(exponents, first, second)
        runs = Word(Alphabet(*sorted((first, second))), spelled).runs
        assert bytes(runs.exponents()) == exponents


@pytest.mark.parametrize("first, second", [(1, 2), (5, 2), (254, 255)])
def test_spell_refuses_exponents_off_the_pair(first, second):
    # every other byte, the marker bytes included, at an even index, at an
    # odd index and deep in a long word
    good = bytes((first, second)) * 50
    for x in set(range(256)) - {first, second}:
        for exponents in (bytes([x]), bytes([first, x]), good + bytes([x]) + good):
            with pytest.raises(ValueError, match="exponents to spell"):
                _spell(exponents, first, second)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 5), (1, 255), (100, 255)])
def test_runs_match_groupby(a, b):
    ab = Alphabet(a, b)
    for n in range(13):
        for letters in map(bytes, product((a, b), repeat=n)):
            expected = tuple((x, len(list(g))) for x, g in groupby(letters))
            assert Word(ab, letters).runs.runs == expected


def test_runs_of_a_long_word_with_long_runs():
    rng = random.Random(9)
    runs = [70_000 if i % 9_000 == 0 else rng.randint(1, 3) for i in range(40_000)]
    letters = b"".join(bytes([x]) * e for x, e in zip((1, 255) * 20_000, runs))
    assert Word(Alphabet(1, 255), letters).runs.exponents() == tuple(runs)
    one_run = bytes([7]) * (3 * 2**16)
    assert Word(Alphabet(7, 9), one_run).runs.runs == ((7, 3 * 2**16),)


def boundary_runs_by_groupby(letters, a, b):
    """Reference for `_boundary_runs`: (first, interior, last) from the runs
    `groupby` finds, (0, b"", n) for at most one run, and None when an
    interior exponent is neither a nor b."""
    exps = [len(list(g)) for _, g in groupby(letters)]
    if len(exps) < 2:
        return 0, b"", len(letters)
    if any(e != a and e != b for e in exps[1:-1]):
        return None
    return exps[0], bytes(exps[1:-1]), exps[-1]


@pytest.mark.parametrize("a, b", [*DIFFERENTIAL_ALPHABETS, (1, 255), (254, 255), (100, 255)])
def test_boundary_runs_match_groupby(a, b):
    for n in range(14):
        for letters in map(bytes, product((a, b), repeat=n)):
            assert _boundary_runs(letters, a, b) == boundary_runs_by_groupby(letters, a, b)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 5), (1, 255), (254, 255), (100, 255)])
def test_boundary_runs_of_one_run_and_of_bad_interior_runs(a, b):
    # one run of any length has no boundary: (0, b"", n)
    for c in (a, b):
        for n in (1, 2, b, 255, 256, 70_000):
            assert _boundary_runs(bytes([c]) * n, a, b) == (0, b"", n)
    # an interior run of a-1, b+1, 255, 256 or 70,000 letters is refused
    # between two letters, after a long run and deep in a word of good runs
    good = [a, b] * 300
    for e in {a - 1, b + 1, 255, 256, 70_000} - {0, a, b}:
        for exponents in ([1, e, 1], [70_000, e, b], [1, *good, e, *good, 1]):
            letters = spell_by_loop(exponents, a, b)
            assert _boundary_runs(letters, a, b) is None, (e, len(exponents))
    # runs of a and b around them are kept, whatever the end runs
    for exponents in ([70_000, a, b, 1], [b, *good, 70_000], [300, *good, 256]):
        letters = spell_by_loop(exponents, b, a)
        assert _boundary_runs(letters, a, b) == (
            exponents[0], bytes(exponents[1:-1]), exponents[-1])


@pytest.mark.parametrize("a, b", [(1, 2), (1, 3), (2, 5), (1, 255)])
def test_boundary_runs_of_words_longer_than_two_to_the_sixteen(a, b):
    kappa = kappa_prefix(Alphabet(a, b), 200_000).letters
    rng = random.Random(256 * a + b)
    cases = [kappa[7:7 + n] for n in (2**16 + 1, 70_000, 199_000)]
    cases += [bytes(rng.choice((a, b)) for _ in range(n)) for n in (2**16 + 3, 100_000)]
    cases.append(cases[0][:40_000] + bytes([a + b - cases[0][40_000]]) + cases[0][40_001:])
    assert all(len(letters) > 2**16 for letters in cases)
    answers = [_boundary_runs(letters, a, b) for letters in cases]
    assert answers == [boundary_runs_by_groupby(letters, a, b) for letters in cases]
    assert None not in answers[:3]


def short_runs_counts():
    info = words._short_runs.cache_info()
    return info.hits, info.misses, info.currsize


@pytest.mark.parametrize("a, b", DIFFERENTIAL_ALPHABETS)
def test_short_words_answer_alike_from_a_cold_and_a_warm_memo(a, b):
    rng = random.Random(256 * a + b)
    kappa = kappa_prefix(Alphabet(a, b), 2_000).letters
    cases = [bytes(w) for n in range(15) for w in product((a, b), repeat=n)]
    for n in (32, 33):  # the longest word the memo keeps, and the shortest it skips
        factors = [kappa[s:s + n] for s in rng.sample(range(1_900), 40)]
        cases += factors + [bytes([c]) * n for c in (a, b)]
        cases += [bytes(rng.choice((a, b)) for _ in range(n)) for _ in range(40)]
        cases += [w[:9] + bytes([a + b - w[9]]) + w[10:] for w in factors]
    cases = list(dict.fromkeys(cases))  # κ repeats some of its factors
    short = sum(len(letters) <= 32 for letters in cases)
    refused = 0
    words._short_runs.cache_clear()
    for letters in cases:
        expected = boundary_runs_by_groupby(letters, a, b)
        cold = _boundary_runs(letters, a, b)
        warm = _boundary_runs(letters, a, b)
        assert cold == warm == expected, letters
        refused += expected is None and len(letters) == 33
    # every short word missed once and then hit; no longer one was kept
    assert short_runs_counts() == (short, short, 1024)
    assert refused > 0


def test_the_memo_keeps_each_alphabet_apart():
    words._short_runs.cache_clear()
    letters = b"\x02\x02\x02"
    assert _boundary_runs(letters, 2, 4) == (0, b"", 3)
    assert _boundary_runs(letters, 2, 5) == (0, b"", 3)
    assert short_runs_counts() == (0, 2, 2)
    for a, b in ((2, 4), (2, 5)):  # each alphabet reads its own entry
        word = bytes([a, a, b, a, b, b, a])
        assert _boundary_runs(word, a, b) == boundary_runs_by_groupby(word, a, b)
        assert _boundary_runs(letters, a, b) == (0, b"", 3)
    assert short_runs_counts() == (2, 4, 4)


def test_the_memo_is_bounded_and_keeps_only_short_words():
    assert words._short_runs.cache_info().maxsize == 1024
    words._short_runs.cache_clear()
    kappa = kappa_prefix(Alphabet(1, 2), 2_000).letters
    _boundary_runs(kappa[:33], 1, 2)
    assert short_runs_counts() == (0, 0, 0)
    _boundary_runs(kappa[:32], 1, 2)
    assert short_runs_counts() == (0, 1, 1)
    for i in range(1_100):  # 1,100 distinct words of 11 letters, and longer ones
        _boundary_runs(bytes(1 + (i >> bit & 1) for bit in range(11)), 1, 2)
        _boundary_runs(kappa[i:i + 33 + i % 50], 1, 2)
    assert short_runs_counts() == (0, 1_101, 1024)


def test_runs_are_run_records_equal_to_the_groupby_runs():
    for a, b in [(1, 2), (2, 5), (1, 255)]:
        letters = kappa_prefix(Alphabet(a, b), 10_000).letters
        letters += bytes([letters[-1] ^ a ^ b]) * 300  # a run past a byte
        runs = Word(Alphabet(a, b), letters).runs.runs
        assert all(type(run) is Run for run in runs)
        assert runs == tuple((x, len(list(g))) for x, g in groupby(letters))
        assert (runs[0].letter, runs[-1].exponent) == (letters[0], 300)
        assert repr(runs[-1]) == f"Run(letter={letters[-1]}, exponent=300)"


def test_runs_past_a_byte_are_exact():
    ab = Alphabet(1, 255)
    w = ab.word(bytes([255]) * 300 + bytes([1]) * 256 + bytes([255]))
    assert w.runs.exponents() == (300, 256, 1)
    assert [r.letter for r in w.runs] == [255, 1, 255]


def parse_by_loop(alphabet, text):
    """Text parsing with one `int()` per letter of ASCII digits, the
    reference for the digit fast path of `Alphabet.word`."""
    text = text.strip(" \t\n\r\x0b\x0c")
    if not text:
        return b""
    if "," in text:
        parts = text.split(",")
    elif alphabet.b < 10:
        parts = list(text)
    else:
        parts = [text]
    letters = []
    for part in parts:
        if not re.fullmatch("[0-9]+", part):
            raise ValueError(f"letter {part!r} is not an integer")
        letters.append(int(part))
    bad = next((x for x in letters if x != alphabet.a and x != alphabet.b), None)
    if bad is not None:
        raise ValueError(f"letter {bad} not in alphabet {alphabet}")
    return bytes(letters)


@given(st.sampled_from([Alphabet(1, 2), Alphabet(1, 3), Alphabet(1, 12)]),
       st.text(alphabet="123, \tx+_-\u0661\u3000\udc80", max_size=12))
@example(Alphabet(1, 2), "\u300012 ")
def test_parsing_matches_the_letter_loop(ab, text):
    # the parser alone as well: the text path builds its `Word` unchecked
    for parse in (lambda t: ab.word(t).letters, lambda t: words._parse_text(ab, t)):
        try:
            expected = parse_by_loop(ab, text)
        except ValueError as error:
            with pytest.raises(ValueError) as info:
                parse(text)
            assert str(info.value) == str(error)
        else:
            assert parse(text) == expected
