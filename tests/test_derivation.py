import random
from itertools import groupby, product

import pytest
from hypothesis import given, settings, strategies as st

from smoothwords import (
    Alphabet,
    NotDerivableError,
    NotRDerivableError,
    Word,
    check_smooth_depth,
    derivability,
    derivative_chain,
    derive_f,
    derive_huang,
    derive_r,
    is_f_smooth,
    is_r_smooth,
    kappa_prefix,
    left_extensions,
)
from smoothwords import derivation, words
from smoothwords.derivation import _F, _HUANG, _PREFIX, _R, _derivatives

AB12 = Alphabet(1, 2)
AB13 = Alphabet(1, 3)
AB14 = Alphabet(1, 4)


def smooth_words(ab, max_len=30):
    # arbitrary words over the alphabet's two letters; derivation domain is
    # checked inside the operators themselves
    return st.lists(
        st.sampled_from([ab.a, ab.b]), min_size=0, max_size=max_len
    ).map(ab.word)


class TestDeriveF:
    def test_worked_examples(self):
        assert derive_f(AB12.word("2211")).render() == "22"
        assert derive_f(AB13.word("331113")).render() == "33"

    def test_empty_is_fixed(self):
        assert derive_f(AB12.empty()) == AB12.empty()

    def test_single_run(self):
        assert derive_f(AB12.word("1")).render() == ""
        assert derive_f(AB12.word("22")).render() == "2"
        assert derive_f(AB14.word("444")).render() == "4"

    def test_interior_exponent_out_of_domain(self):
        # middle run of exponent 3 over {1,2}
        with pytest.raises(NotDerivableError) as exc:
            derive_f(AB12.word("2111" + "2"))
        report = exc.value.report
        assert report is not None and not report.derivable
        assert report.offending_exponent == 3

    def test_boundary_exponent_may_sit_below_a(self):
        # over {2,4}: boundary exponents 1 and 3 are allowed, interior is not
        ab = Alphabet(2, 4)
        assert derive_f(ab.word("42244")).render() == "2"
        assert derive_f(ab.word("422444")).render() == "24"

    def test_derivability_report_ok(self):
        rep = derivability(AB12.word("2211"), kind="f")
        assert rep.derivable and rep.reason is None


class TestDeriveR:
    def test_worked_example(self):
        assert derive_r(AB12.word("211")).render() == "12"

    def test_all_but_last_must_be_in_alphabet(self):
        with pytest.raises(NotRDerivableError):
            derive_r(AB12.word("2221"))

    def test_trailing_run_cut(self):
        # 22112: exps 2,2,1 -> letters 2,2 then cut(1) = eps
        assert derive_r(AB12.word("22112")).render() == "22"


class TestDeriveHuang:
    def test_divergence_witness_over_1_4(self):
        u = AB14.word([4] * 4 + [1] * 4 + [4] * 4 + [1] * 4 + [4] * 3)
        chain = derivative_chain(u, op=derive_huang)
        assert [w.render() for w in chain] == [
            "4444111144441111444", "4444", "4", ""]
        # two-sided rule disagrees: it keeps a residual 4 from the final run
        assert derive_f(u).render() == "44444"
        with pytest.raises(NotDerivableError):
            derive_f(derive_f(u))

    @given(smooth_words(AB12, max_len=24))
    @settings(max_examples=300)
    def test_agrees_with_two_sided_on_consecutive_pair(self, w):
        # a = b - 1 collapses the two cut rules
        try:
            expected = derive_f(w)
        except NotDerivableError:
            with pytest.raises(NotDerivableError):
                derive_huang(w)
            return
        assert derive_huang(w) == expected


class TestChains:
    def test_height_chain(self):
        chain = derivative_chain(AB12.word("221121221"))
        assert [w.render() for w in chain] == [
            "221121221", "22112", "22", "2", ""]

    def test_chain_propagates_domain_errors(self):
        with pytest.raises(NotDerivableError):
            derivative_chain(AB12.word("12121"))


@given(smooth_words(AB12).filter(lambda w: len(w) > 0))
def test_strict_contraction(w):
    try:
        d = derive_f(w)
    except NotDerivableError:
        return
    assert len(d) < len(w)


@given(st.one_of(smooth_words(AB12), smooth_words(AB13), smooth_words(AB14)))
def test_complement_invariance(w):
    # derivation reads only run exponents, so flipping letters changes nothing
    try:
        d = derive_f(w)
    except NotDerivableError:
        with pytest.raises(NotDerivableError):
            derive_f(w.complement())
        return
    assert derive_f(w.complement()) == d


@given(st.one_of(smooth_words(AB12), smooth_words(AB13)))
def test_reversal_equivariance(w):
    try:
        d = derive_f(w)
    except NotDerivableError:
        with pytest.raises(NotDerivableError):
            derive_f(w.reversal())
        return
    assert derive_f(w.reversal()) == d.reversal()


# -- differential check against the definitions ----------------------------


def ref_derive(letters, ab, kind):
    """One step by the definition of `kind` ('f', 'huang', 'r' or 'prefix');
    None when the word is outside the domain."""
    if not letters:
        return b""
    exps = [len(list(g)) for _, g in groupby(letters)]
    letter_exps = (ab.a, ab.b)
    if kind in ("f", "huang"):
        if exps[0] > ab.b or exps[-1] > ab.b:
            return None
        if any(p not in letter_exps for p in exps[1:-1]):
            return None

        def cut(p):
            keep = p == ab.b if kind == "huang" else p > ab.a
            return [ab.b] if keep else []

        if len(exps) == 1:
            return bytes(cut(exps[0]))
        return bytes(cut(exps[0]) + exps[1:-1] + cut(exps[-1]))
    # right and prefix rules: every run but the last is complete
    if any(p not in letter_exps for p in exps[:-1]) or exps[-1] > ab.b:
        return None
    if kind == "prefix" or exps[-1] <= ab.a:
        return bytes(exps[:-1])
    return bytes(exps[:-1] + [ab.b])


def ref_walk(letters, ab, kind):
    """Iterated derivatives down to the empty word, or to the first word
    outside the domain of `kind`."""
    chain = [letters]
    while chain[-1] and (d := ref_derive(chain[-1], ab, kind)) is not None:
        chain.append(d)
    return chain


def ref_depth(letters, ab, depth):
    for _ in range(depth):
        if not letters:
            return False
        letters = ref_derive(letters, ab, "prefix")
        if letters is None:
            return False
    return True


DIFFERENTIAL_ALPHABETS = [(1, 2), (1, 3), (2, 4), (2, 5), (1, 6), (3, 5)]
OPERATORS = (
    ("f", derive_f, NotDerivableError),
    ("r", derive_r, NotRDerivableError),
    ("huang", derive_huang, NotDerivableError),
)


def ref_report(letters, ab, kind):
    """Index and exponent of the first run outside the domain of `kind`."""
    exps = [len(list(g)) for _, g in groupby(letters)]
    last = len(exps) - 1
    for i, p in enumerate(exps):
        cut = i == last or (i == 0 and kind != "r")
        if p > ab.b if cut else p not in (ab.a, ab.b):
            return i, p
    return None


def assert_matches_definitions(w):
    ab, letters = w.alphabet, w.letters
    for kind, op, error in OPERATORS:
        expected = ref_derive(letters, ab, kind)
        assert derivability(w, kind).derivable == (expected is not None)
        if expected is None:
            with pytest.raises(error) as info:
                op(w)
            report = info.value.report
            assert not report.derivable
            assert (report.offending_run_index, report.offending_exponent) == (
                ref_report(letters, ab, kind)), (kind, w)
        else:
            assert op(w).letters == expected, (kind, w)
    for kind, rule in (("f", _F), ("r", _R), ("huang", _HUANG), ("prefix", _PREFIX)):
        walk = list(_derivatives(letters, ab.a, ab.b, rule))
        assert walk == ref_walk(letters, ab, kind), (kind, w)
    cert = is_f_smooth(w)
    chain = ref_walk(letters, ab, "f")
    if chain[-1]:
        assert cert is None, w
    else:
        assert [c.letters for c in cert.chain] == chain
        assert cert.height == len(chain) - 1
    assert is_r_smooth(w) == (not ref_walk(letters, ab, "r")[-1])
    for depth in range(7):
        assert check_smooth_depth(w, depth) == ref_depth(letters, ab, depth)


def test_failing_derivation_builds_no_runs(monkeypatch):
    # the domain report reads run lengths off the letters: a long word that
    # fails would otherwise build one `Run` object per run
    def refuse(word):
        raise AssertionError(f"Word.runs built for {word!r}")

    monkeypatch.setattr(Word, "runs", property(refuse))
    for op, text, error in (
        (derive_f, "11112", NotDerivableError),
        (derive_r, "1112", NotRDerivableError),
        (derive_huang, "21111", NotDerivableError),
    ):
        with pytest.raises(error) as info:
            op(AB12.word(text))
        assert not info.value.report.derivable


def test_domain_check_reads_run_lengths_as_bytes():
    # the report reads run lengths off the boundary marks, so a run past 255
    # keeps its whole length
    for kind, text in (("f", "11112"), ("r", "1121112"), ("huang", "21111")):
        assert not derivability(AB12.word(text), kind).derivable
    report = derivability(Word(AB12, b"\x01" * 300 + b"\x02"))
    assert (report.offending_run_index, report.offending_exponent) == (0, 300)


@pytest.mark.parametrize("a,b", DIFFERENTIAL_ALPHABETS)
def test_operators_match_definitions_on_all_short_words(a, b):
    ab = Alphabet(a, b)
    for n in range(11):
        for letters in map(bytes, product((a, b), repeat=n)):
            assert_matches_definitions(Word(ab, letters))


@pytest.mark.parametrize("a,b", [(1, 255), (254, 255), (100, 255), (1, 2)])
def test_operators_match_definitions_on_runs_past_a_byte(a, b):
    # the step spells interior exponents as bytes, and a run of 256 or more
    # cannot be one: such a run alone, first, interior or last, before every
    # rule (f, r and huang by their operators and walks, prefix by its walk
    # and `check_smooth_depth`)
    for long in (254, 255, 256, 300, 70_000):
        for exponents in ([long], [long, a], [a, long], [long, a, b], [a, long, a],
                          [b, a, long], [a, b, long, a, b]):
            for first, second in ((a, b), (b, a)):
                letters = b"".join(
                    bytes([first if i % 2 == 0 else second]) * e
                    for i, e in enumerate(exponents))
                assert_matches_definitions(Word(Alphabet(a, b), letters))


@pytest.mark.parametrize("a,b", [(1, 2), (2, 5), (3, 5), (1, 255), (100, 255), (254, 255)])
def test_reports_on_long_words_match_the_runs(a, b):
    # κ windows of 2 to 15,000 letters with up to two runs spliced in, of
    # lengths around a and b and past a byte: the first offender may sit
    # deep in the word, where its index is counted from the boundary marks
    ab = Alphabet(a, b)
    kappa = kappa_prefix(ab, 20_000).letters
    rng = random.Random(256 * a + b)
    lengths = [n for n in (a - 1, a + 1, b - 1, b + 1, 256, 1_000) if n]
    deep = 0
    for _ in range(60):
        n = rng.randint(2, 15_000)
        start = rng.randrange(len(kappa) - n)
        letters = kappa[start:start + n]
        for _ in range(rng.randint(0, 2)):
            at = rng.randint(0, len(letters))
            run = bytes([rng.choice((a, b))]) * rng.choice(lengths)
            letters = letters[:at] + run + letters[at:]
        w = Word(ab, letters)
        last = sum(1 for _ in groupby(letters)) - 1
        for kind in ("f", "r", "huang"):
            report = derivability(w, kind)
            expected = ref_report(letters, ab, kind)
            got = (report.offending_run_index, report.offending_exponent)
            assert report.derivable == (expected is None), (kind, n, start)
            assert got == (expected or (None, None)), (kind, n, start)
            deep += expected is not None and 1 < expected[0] < last
    assert deep > 30  # offenders past the second run and before the last


def long_words(ab):
    """κ windows of 1,000, 70,000 and 140,000 letters, the last two longer
    than 2^16, and one with its middle letter swapped; one with a
    run of 255, 256 or 300 letters spliced in, and such runs alone and
    between two letters; the empty word; seeded random words."""
    a, b = ab.a, ab.b
    kappa = kappa_prefix(ab, 140_777).letters
    windows = [kappa[777:777 + n] for n in (1_000, 70_000, 140_000)]
    assert len(windows[1]) > 2**16
    mid = 35_000
    swapped = windows[1][:mid] + bytes([a + b - windows[1][mid]]) + windows[1][mid + 1:]
    runs = [bytes([c]) * n for n in (255, 256, 300) for c in (a, b)]
    other = {a: bytes([b]), b: bytes([a])}
    runs += [other[r[0]] + r + other[r[0]] for r in runs]
    runs += [windows[0][:500] + r + windows[0][500:] for r in runs[:6]]
    rng = random.Random(256 * a + b)
    noise = [bytes(rng.choice((a, b)) for _ in range(n)) for n in (12, 100, 1_000, 70_000)]
    return [*windows, swapped, *runs, b"", *noise]


def assert_certificate_matches_chain(ab, letters, before):
    """`is_f_smooth` gives the chain `_derivatives` walks and its height, or
    None where the chain stops short of the empty word, right after
    `before` ran on a cleared walk memo."""
    chain = list(_derivatives(letters, ab.a, ab.b, _F))
    derivation._extensions.cache_clear()
    before()
    cert = is_f_smooth(Word(ab, letters))
    if chain[-1]:
        assert cert is None, (ab, len(letters))
    else:
        assert cert is not None, (ab, len(letters))
        assert [c.letters for c in cert.chain] == chain, (ab, len(letters))
        assert cert.height == len(chain) - 1


@pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 5), (1, 255), (254, 255)])
def test_certificates_of_long_words_match_the_chain(a, b):
    ab = Alphabet(a, b)
    cases = long_words(ab)
    for letters in cases:
        assert_certificate_matches_chain(ab, letters, lambda: None)
        assert_certificate_matches_chain(
            ab, letters, lambda: left_extensions(Word(ab, letters)))
    members = [is_f_smooth(Word(ab, v)) is not None for v in cases]
    assert members[:3] == [True] * 3 and not all(members[-3:]), members


def test_certificates_alternating_alphabets_of_the_same_letters():
    # a run of ones is a word of {1,2} and of {1,3}, with other chains in
    # each: each certificate follows one of the same letters over the other
    for n in (*range(13), 255, 256, 300):
        for ab, other in ((AB12, AB13), (AB13, AB12)):
            letters = b"\x01" * n
            assert_certificate_matches_chain(
                ab, letters, lambda: is_f_smooth(Word(other, letters)))


def test_certificates_and_parsed_words_alike_from_the_checking_constructor(monkeypatch):
    # a certificate's chain and parsed text are built by `words._word` with
    # no letter check; swapping the checking `Word` back in changes no
    # answer and refuses no letter
    rng = random.Random(37)
    cases = []
    for a, b in [*DIFFERENTIAL_ALPHABETS, (1, 255)]:
        ab = Alphabet(a, b)
        kappa = kappa_prefix(ab, 3_000).letters
        cases += [Word(ab, bytes(w)) for n in range(11) for w in product((a, b), repeat=n)]
        cases += [Word(ab, kappa[s:s + rng.randint(11, 400)]) for s in range(0, 2_500, 25)]
    texts = [(w.alphabet, w.render()) for w in cases]

    def answers():
        return [is_f_smooth(w) for w in cases], [ab.word(text) for ab, text in texts]

    unchecked = answers()
    built = []

    def checked(ab, letters):
        built.append(letters)
        return Word(ab, letters)

    monkeypatch.setattr(derivation, "_word", checked)
    monkeypatch.setattr(words, "_word", checked)
    assert answers() == unchecked
    certificates = [cert for cert in unchecked[0] if cert is not None]
    assert len(built) == len(texts) + sum(len(cert.chain) for cert in certificates)
    assert len(certificates) > 1_000


@pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 3), (2, 5), (3, 7), (1, 255),
                                 (100, 255), (254, 255)])
def test_words_at_the_end_of_the_walk_match_their_derivation(a, b):
    # x·c^m·y with x, y empty or one letter: one to three runs, decided from
    # their exponents as the walk's one-sided and two-sided answers are.
    # Three runs d·c^m·d take m = a and m = b; over {1,2} a run of 3 is
    # already too long, and a middle of 255 is the longest a byte holds.
    # A context of None, outside the domain, rules the word out.
    contexts = (b"", bytes([a]), bytes([b]))
    for c in (a, b):
        for m in (*range(b + 3), 254, 255):
            middle = bytes([c]) * m
            for x, y in product(contexts, repeat=2):
                expected = derivation._is_smooth_bytes(x + middle + y, a, b, _F)
                assert derivation._ends_smooth(x, middle, y, a, b) == expected, (
                    a, b, x, c, m, y)
            for x in contexts:
                assert not derivation._ends_smooth(x, middle, None, a, b)
                assert not derivation._ends_smooth(None, middle, x, a, b)
