"""The failure branches of `verify` criteria 1 to 5: with one collaborator
of `checks` made wrong, the criterion fails and its detail names what broke,
in its own words."""

from smoothwords import Alphabet, checks
from smoothwords.checks import CHECKS
from smoothwords.derivation import _HUANG
from smoothwords.generators import EmbeddingWitness

AB12, AB13, AB14 = Alphabet(1, 2), Alphabet(1, 3), Alphabet(1, 4)


def assert_fails(result, detail):
    assert result.passed is False
    assert result.detail == detail


def test_kappa_prefix_with_one_letter_swapped(monkeypatch):
    kappa = checks.kappa_prefix

    def swapped(ab, length, start=None):
        w = kappa(ab, length, start=start)
        return w[:6] + ab.word([ab.other(w[6])]) + w[7:]

    monkeypatch.setattr(checks, "kappa_prefix", swapped)
    assert_fails(CHECKS[1](only=AB12), "prefix over {1,2} starting 2 diverges: "
                 "22112112122112112212... vs 22112122122112112212...")


def test_derivation_example_derived_wrong(monkeypatch):
    derive = checks.derive_f

    def derive_f(w):
        return derive(w)[1:] if w.render() == "122112" else derive(w)

    monkeypatch.setattr(checks, "derive_f", derive_f)
    assert_fails(CHECKS[2](only=AB12), "derive_f(122112) = '2', expected '22'")


def test_non_smooth_example_accepted(monkeypatch):
    is_f_smooth = checks.is_f_smooth
    monkeypatch.setattr(checks, "is_f_smooth", lambda w: is_f_smooth(
        AB12.word("1212") if w.render() == "12121" else w))
    assert_fails(CHECKS[2](only=AB12), "12121 was not rejected")


def huang_wrong_on(monkeypatch, wrong):
    """`checks._derive_bytes` answering, under Huang's rule, one letter b
    too many for each word for which `wrong(letters)` holds, and a letter b
    for one it cannot derive."""
    derive = checks._derive_bytes

    def patched(letters, a, b, rule):
        step = derive(letters, a, b, rule)
        if rule is _HUANG and wrong(letters):
            return bytes([b]) + (step or b"")
        return step

    monkeypatch.setattr(checks, "_derive_bytes", patched)


def test_cut_rules_disagreeing_on_one_word(monkeypatch):
    huang_wrong_on(monkeypatch, lambda letters: letters == b"\x01\x02\x02\x01")
    assert_fails(CHECKS[3](only=AB12), "cut rules disagree at 1221")


def test_more_than_four_failures_are_summed_up(monkeypatch):
    huang_wrong_on(monkeypatch, lambda letters: len(letters) == 3)
    assert_fails(CHECKS[3](only=AB12),
                 "cut rules disagree at 111; cut rules disagree at 112; "
                 "cut rules disagree at 121; cut rules disagree at 122; and 4 more")


def test_divergence_witness_broken_three_ways(monkeypatch):
    chain = checks.derivative_chain
    monkeypatch.setattr(checks, "derivative_chain", lambda w, op: chain(w, op)[:-1])
    assert_fails(CHECKS[3](only=AB14), "alternate cut rule did not reach empty in 3 steps")
    monkeypatch.undo()

    derive = checks.derive_f
    monkeypatch.setattr(checks, "derive_f", lambda w: derive(w)[1:])
    assert_fails(CHECKS[3](only=AB14), "two-sided derivative is 4444, expected 44444")

    monkeypatch.setattr(checks, "derive_f", lambda w: w if w.letters == b"\x04" * 5
                        else derive(w))
    assert_fails(CHECKS[3](only=AB14), "4^5 unexpectedly derivable over {1,4}")


def embed_left_wrong_on(monkeypatch, text, wrong):
    """`checks.embed_left` whose witness for the word `text` is passed
    through `wrong`."""
    embed = checks.embed_left

    def patched(word):
        witness = embed(word)
        return wrong(witness) if word.render() == text else witness

    monkeypatch.setattr(checks, "embed_left", patched)


def test_embedding_that_drops_a_letter(monkeypatch):
    embed_left_wrong_on(monkeypatch, "2112", lambda witness: EmbeddingWitness(
        witness.left_extension, witness.combined[:-1]))
    assert_fails(CHECKS[4](only=AB12), "embedding broken for 2112 over {1,2}")


def test_embedding_with_a_short_left_extension(monkeypatch):
    embed_left_wrong_on(monkeypatch, "131", lambda witness: EmbeddingWitness(
        witness.left_extension[:3], witness.combined))
    assert_fails(CHECKS[4](only=AB13), "left extension too short for 131 over {1,3}")


def test_extension_that_leaves_the_language(monkeypatch):
    # the extension of one embedding ends in a run of five b's, too long
    build = checks.build_smooth_from_r
    seed = checks.embed_left(AB14.word("141")).combined
    monkeypatch.setattr(checks, "build_smooth_from_r", lambda w, n: build(w, n) + (
        AB14.word("44444") if w == seed else AB14.empty()))
    assert_fails(CHECKS[4](only=AB14), "extension failed for 141 over {1,4}")


def test_tree_level_missing_a_vertex(monkeypatch):
    generation = checks.tree_generation

    def patched(ab, family, g):
        level = generation(ab, family, g)
        return level[1:] if (ab, g) == (AB12, 1) else level

    monkeypatch.setattr(checks, "tree_generation", patched)
    assert_fails(CHECKS[5](only=AB12),
                 "generation 1 over {1,2} differs: ['21'] vs ['12', '21']; "
                 "edge broken at {1,2} generation 2")


def test_tree_edge_that_derives_elsewhere(monkeypatch):
    derive = checks.derive_f
    monkeypatch.setattr(checks, "derive_f", lambda w: derive(w)[1:]
                        if w.render() == "313331" else derive(w))
    assert_fails(CHECKS[5](only=AB13), "edge broken at {1,3} generation 2")
