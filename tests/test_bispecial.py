import math
import re
from collections import Counter
from fractions import Fraction
from itertools import count, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from smoothwords import (
    Alphabet,
    FAMILIES,
    InvalidFamilyError,
    ResourceCapError,
    UsageError,
    Word,
    bispecial_multiplicity_sum,
    derive_f,
    enumerate_f_smooth,
    exact_complexity,
    generation_stats,
    generation_swap,
    is_bispecial,
    is_f_smooth,
    kappa_prefix,
    left_extensions,
    multiplicity,
    primitive,
    right_extensions,
    root_of,
    tree_complexity,
    tree_derived_complexity,
    tree_generation,
)
from smoothwords import bispecial, derivation, smoothness
from smoothwords.derivation import _F, _derivatives, _extensions, _is_smooth_bytes

AB12 = Alphabet(1, 2)
AB13 = Alphabet(1, 3)
AB14 = Alphabet(1, 4)
AB24 = Alphabet(2, 4)
# Every word up to 12 letters over the first three, up to 10 over the rest.
SHORT_WORD_ALPHABETS = [
    *(Alphabet(a, b) for a, b in ((1, 2), (1, 3), (2, 3))),
    *(Alphabet(a, b) for a, b in ((2, 5), (1, 4), (3, 5), (1, 6), (2, 4))),
]


def short_words(ab, longest=None):
    longest = longest or (12 if ab.b <= 3 else 10)
    for n in range(longest + 1):
        yield from map(bytes, product((ab.a, ab.b), repeat=n))


def oracle_levels(ab, family, letters=2 ** 22):
    """Sorted levels 0, 1, ... of a family, each parent's children built by
    the public `primitive`, one call per first letter, while a level holds
    at most `letters` letters."""
    level = [bispecial.family_root(ab, family)]
    while True:
        yield sorted(w.letters for w in level)
        if 2 * sum(2 * ab.a + sum(w.letters) for w in level) > letters:
            return
        level = [primitive(w, x) for w in level for x in (ab.a, ab.b)]


def tree_vertices(ab, generations):
    for family in bispecial._families(ab):
        for g in generations:
            for node in tree_generation(ab, family, g):
                yield g, node.word


def recording_blocks(spelled):
    """`bispecial._children`, also listing in `spelled` every child it
    returns."""
    children = bispecial._children

    def recorded(*args):
        level = children(*args)
        spelled.extend(level)
        return level

    return recorded


def pruned_reference(ab, family, horizon):
    """The pruned mixed walk one vertex at a time: each child is built by the
    public `primitive` and kept when its own children, of length
    2a + sum(w), are within the horizon.  Returns the length histogram and
    the children spelled: both of each vertex that keeps one."""
    root = bispecial.family_root(ab, family)
    hist, spelled = Counter([len(root)]), []
    level = [root]
    while level:
        kept = []
        for w in level:
            children = [primitive(w, x) for x in (ab.a, ab.b)]
            hist.update(map(len, children))
            within = [c for c in children if 2 * ab.a + sum(c.letters) <= horizon]
            if within:
                spelled += [c.letters for c in children]
            kept += within
        level = kept
    return hist, spelled


def reference_columns(p, p_T, horizon):
    """The differences and bounds of a complexity table by their index-loop
    definitions."""
    s = tuple(p[n + 1] - p[n] for n in range(horizon))
    b = tuple(s[n + 1] - s[n] for n in range(horizon - 1))
    lower = tuple(1 + n + p_T[n] for n in range(horizon + 1))
    upper = tuple(1 + n + 3 * p_T[n] for n in range(horizon + 1))
    return s, b, lower, upper


def merged_state_levels(ab, family, horizon):
    """Each level's length histogram from parity-count states merged into a
    Counter of state and multiplicity, expanding a state when its children,
    of length 2a + a(ae + ao) + b(be + bo), are within the horizon."""
    a, b = ab.a, ab.b
    states = Counter([bispecial.family_root(ab, family).parity_counts()])
    while states:
        hist, children = Counter(), Counter()
        for state, mult in states.items():
            hist[sum(state)] += mult
            if 2 * a + a * (state[0] + state[1]) + b * (state[2] + state[3]) <= horizon:
                ae, ao, be, bo = bispecial._state_child_a(state, a, b, ab.parity)
                children[ae, ao, be, bo] += mult
                children[be, bo, ae, ao] += mult
        yield hist
        states = children


class TestPrimitive:
    def test_base_cases(self):
        assert primitive(AB12.empty(), 1).render() == "12"
        assert primitive(AB12.empty(), 2).render() == "21"
        with pytest.raises(UsageError, match=r"^letter 3 not in \{1,2\}$"):
            primitive(AB12.empty(), 3)

    def test_worked_example(self):
        assert primitive(AB12.word("21"), 1).render() == "12212"

    def test_complement_symmetry(self):
        u = AB12.word("21")
        assert primitive(u, 2) == primitive(u, 1).complement()

    def test_inverts_derivation(self):
        for u in (AB12.empty(), AB12.word("2"), AB12.word("21"), AB12.word("212")):
            for c in (1, 2):
                assert derive_f(primitive(u, c)) == u

    @given(st.lists(st.sampled_from([1, 2]), max_size=12))
    @settings(max_examples=200)
    def test_inverse_property(self, letters):
        u = AB12.word(letters)
        assert derive_f(primitive(u, 1)) == u
        assert derive_f(primitive(u, 2)) == u

    @given(st.lists(st.sampled_from([1, 4]), min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_prefix_monotone(self, letters):
        u = AB14.word(letters)
        shorter = u[:len(u) - 1]
        assert primitive(shorter, 1).is_prefix_of(primitive(u, 1))

    def test_refused_past_the_letter_budget_before_spelling(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("runs spelled before the budget check")

        monkeypatch.setattr(bispecial, "_spell", unreachable)
        ab = Alphabet(100, 255)
        with pytest.raises(ResourceCapError, match=re.escape(
                "primitive of a 400,000-letter word over {100,255} would have "
                "102,000,200 letters, above the budget of 80,000,000")):
            primitive(Word(ab, bytes([255]) * 400_000), 100)


class TestBispecialPredicates:
    def test_empty_word_is_bispecial(self):
        assert is_bispecial(AB12.empty())
        assert multiplicity(AB12.empty()) == 1

    def test_single_letters_over_consecutive_pair(self):
        assert is_bispecial(AB12.word("1"))
        assert is_bispecial(AB12.word("2"))
        assert multiplicity(AB12.word("1")) == 0
        assert multiplicity(AB12.word("2")) == 0

    def test_over_1_4(self):
        assert multiplicity(AB14.word("1")) == 1
        assert multiplicity(AB14.word("111")) == -1
        assert is_bispecial(AB14.word("111"))

    def test_not_bispecial_raises(self):
        with pytest.raises(ValueError):
            multiplicity(AB12.word("11"))

    def test_multiplicity_matches_one_sided_probes(self):
        # every word up to 12 letters (10 over the wider alphabets): the
        # grid of x u y decides bispeciality as membership of the four
        # one-sided extensions does
        bispecials = 0
        for ab in SHORT_WORD_ALPHABETS:
            for letters in short_words(ab):
                w = ab.word(list(letters))
                one_sided = [[x, *letters] for x in (ab.a, ab.b)]
                one_sided += [[*letters, y] for y in (ab.a, ab.b)]
                expected = all(is_f_smooth(ab.word(v)) is not None for v in one_sided)
                assert is_bispecial(w) == expected, (ab, letters)
                if not expected:
                    with pytest.raises(ValueError, match="not bispecial"):
                        multiplicity(w)
                    continue
                bispecials += 1
                two_sided = sum(
                    is_f_smooth(ab.word([x, *letters, y])) is not None
                    for x in (ab.a, ab.b) for y in (ab.a, ab.b))
                assert multiplicity(w) == two_sided - 3, (ab, letters)
        assert bispecials == 188


def short_labels(ab):
    """Label every word c^n, 0 <= n <= b (the empty word once): 'strong',
    'neutral', 'weak' or 'not-bispecial'."""
    labels = {1: "strong", 0: "neutral", -1: "weak"}
    out = []
    for n in range(ab.b + 1):
        for c in [ab.a] if n == 0 else [ab.a, ab.b]:
            w = ab.word([c] * n)
            out.append((w.render(), labels[multiplicity(w)]
                        if is_bispecial(w) else "not-bispecial"))
    return out


class TestShortClassification:
    def test_consecutive_pair(self):
        got = short_labels(AB12)
        assert got == [
            ("", "strong"),
            ("1", "neutral"),
            ("2", "neutral"),
            ("11", "not-bispecial"),
            ("22", "not-bispecial"),
        ]

    def test_spread_pair(self):
        got = dict(short_labels(AB14))
        assert got[""] == "strong"
        assert got["1"] == "strong" and got["4"] == "strong"
        assert got["111"] == "weak" and got["444"] == "weak"
        assert got["11"] == "neutral" and got["44"] == "neutral"
        assert got["1111"] == "not-bispecial" and got["4444"] == "not-bispecial"

    def test_odd_spread_pair(self):
        got = dict(short_labels(Alphabet(3, 5)))
        assert got[""] == "strong"
        assert got["333"] == "strong" and got["555"] == "strong"
        assert got["3333"] == "weak" and got["5555"] == "weak"
        for n in (1, 2):
            assert got["3" * n] == "neutral" and got["5" * n] == "neutral"


class TestTreeGenerations:
    def test_first_generations_match_reference_tree(self):
        gens = [sorted(n.word.render() for n in tree_generation(AB12, "T", g))
                for g in range(4)]
        assert gens[0] == [""]
        assert gens[1] == ["12", "21"]
        assert gens[2] == ["12112", "12212", "21121", "21221"]
        assert gens[3] == sorted([
            "211212212", "122121121", "2122112112", "1211221221",
            "2112112212", "1221221121", "212212112", "121121221"])

    def test_generation_sizes_double(self):
        for fam in FAMILIES:
            for g in range(5):
                assert len(tree_generation(AB14, fam, g)) == 2 ** g

    @pytest.mark.parametrize("ab", [
        AB12, AB13, AB14, AB24, Alphabet(2, 5), Alphabet(3, 5), Alphabet(1, 9),
        Alphabet(7, 200)])
    def test_levels_match_the_primitive_oracle(self, ab, monkeypatch):
        # each level spells blocks of parents at once and takes the siblings
        # by one swap of the letters; tiny blocks put a block cut after
        # every parent
        expect = {family: list(oracle_levels(ab, family))
                  for family in bispecial._families(ab)}
        for slice_bytes in (None, 1, 2, 3, 5):
            if slice_bytes is not None:
                monkeypatch.setattr(bispecial, "_SLICE", slice_bytes)
            for family, levels in expect.items():
                for g, level in enumerate(levels):
                    got = [n.word.letters for n in tree_generation(ab, family, g)]
                    assert got == level, (ab, family, g, slice_bytes)

    def test_children_derive_to_parent(self):
        for ab in (AB12, AB13):
            for g in range(1, 6):
                parents = {n.word.letters for n in tree_generation(ab, "T", g - 1)}
                for node in tree_generation(ab, "T", g):
                    assert derive_f(node.word).letters in parents

    def test_nodes_are_bispecial_with_family_multiplicity(self):
        for fam, m in (("T", 1), ("T1", 1), ("T2", 1), ("T3", -1), ("T4", -1)):
            for node in tree_generation(AB14, fam, 2):
                assert is_bispecial(node.word)
                assert multiplicity(node.word) == m == node.multiplicity

    def test_side_families_need_spread_alphabet(self):
        with pytest.raises(InvalidFamilyError):
            tree_generation(AB12, "T1", 1)
        with pytest.raises(InvalidFamilyError):
            tree_generation(AB12, "nope", 1)
        with pytest.raises(InvalidFamilyError):  # before the state budget
            generation_stats(AB13, "nope", 21)

    def test_generation_outside_zero_to_cap_is_refused(self):
        # AB12 lists words on both routes; AB13 takes the state route for stats.
        for ab in (AB12, AB13):
            for build in (tree_generation, generation_stats):
                with pytest.raises(ValueError, match="nonnegative"):
                    build(ab, "T", -1)
                with pytest.raises(ResourceCapError):
                    build(ab, "T", bispecial.MAX_GENERATION + 1)

    def test_letter_budget_refusal_names_its_numbers(self, monkeypatch):
        # refused before any level is built: building one would call None
        monkeypatch.setattr(bispecial, "_spell", None)
        with pytest.raises(ResourceCapError, match=(
                r"generation 16 of T over \{1,2\} would materialize about "
                r"172,186,884 letters, above the budget of 80,000,000")):
            tree_generation(AB12, "T", 16)

    def test_letter_budget_is_decided_in_integers(self, monkeypatch):
        # the float estimate overflowed here, or printed "about inf letters";
        # building a level would call None
        monkeypatch.setattr(bispecial, "_spell", None)
        refusal = (r"would materialize about (\d\.\d\de\d+|[\d,]+) letters, "
                   r"above the budget")
        for ab, generation in ((AB12, 1000), (AB24, 647),
                               (Alphabet(100, 255), 138)):
            with pytest.raises(ResourceCapError, match=refusal):
                tree_generation(ab, "T", generation)
            with pytest.raises(ResourceCapError, match=refusal):
                generation_stats(ab, "T", generation, method="words")

    def test_estimate_is_rounded_past_15_digits(self):
        for n, text in ((10 ** 15 - 1, "999,999,999,999,999"),
                        (10 ** 15, "1.00e15"), (123_456 * 10 ** 12, "1.23e17"),
                        (99_950 * 10 ** 12, "1.00e17"),
                        (99_949 * 10 ** 12, "9.99e16")):
            assert bispecial._about(n) == text

    def test_generation_ceiling_is_refused_before_any_work(self, monkeypatch):
        # at most two states a level over {2,4}: only the ceiling bounds it;
        # walking states or spelling words would call None
        monkeypatch.setattr(bispecial, "_state_levels", None)
        monkeypatch.setattr(bispecial, "_spell", None)
        for build in (tree_generation, generation_stats):
            with pytest.raises(ResourceCapError,
                               match=r"^generation 1001 above cap 1000$"):
                build(AB24, "T", bispecial.MAX_GENERATION + 1)

    def test_distinct_states_per_level(self, monkeypatch):
        # the bound the state budget is decided from: 2^g over odd letters,
        # one state a vertex, and at most two over even letters; the walk
        # expands every state of level g as it builds level g + 1
        expanded = []
        child = bispecial._state_child_a

        def recorded(state, *args):
            expanded.append(state)
            return child(state, *args)

        monkeypatch.setattr(bispecial, "_state_child_a", recorded)
        for ab, depth in [*((Alphabet(a, b), 12) for a, b in
                            ((1, 3), (3, 5), (1, 5), (5, 7), (1, 9))),
                          *((Alphabet(a, b), 40) for a, b in
                            ((2, 4), (2, 6), (4, 6), (2, 8)))]:
            for family in FAMILIES:
                levels = bispecial._state_levels(ab, family, math.inf)
                next(levels)
                for g in range(depth + 1):
                    expanded.clear()
                    next(levels)
                    if ab.a % 2:
                        assert len(set(expanded)) == len(expanded) == 2 ** g, \
                            (ab, family, g)
                    else:
                        assert len(expanded) <= 2, (ab, family, g)

    def test_mixed_horizon_refusal_names_its_numbers(self, monkeypatch):
        # refused before any level is built: spelling one would call None
        monkeypatch.setattr(bispecial, "_spell", None)
        with pytest.raises(ResourceCapError, match=re.escape(
                "horizon 1527 over {1,2}: its materialized tree walk grows "
                "like horizon^2.7095 = 423,299,564, above the budget of "
                "423,000,000")):
            tree_complexity(AB12, "T", 1527)
        # the budget refuses no horizon the unpruned walk answered: {1,2} up
        # to 1526, every other mixed alphabet up to 20,000
        monkeypatch.setattr(bispecial, "_pruned_word_histogram",
                            lambda *args: Counter())
        for ab, horizon in ((AB12, 1526), (Alphabet(2, 3), 20_000),
                            (AB14, 20_000), (Alphabet(1, 6), 20_000)):
            tree_complexity(ab, "T", horizon)

    def test_state_budget_refusal_names_its_numbers(self, monkeypatch):
        # {1,3}/T holds 2^g distinct states at generation g; {2,4} holds one
        monkeypatch.setattr(bispecial, "STATE_LIMIT", 64)
        assert generation_stats(AB13, "T", 6, method="state").count == 64
        with pytest.raises(ResourceCapError, match=(
                r"generation 7 of T over \{1,3\} could hold 128 distinct "
                r"parity-count states, above the budget of 64")):
            generation_stats(AB13, "T", 7, method="state")
        # the pruned walk is bounded by the horizon cap, not the state budget
        assert tree_complexity(AB13, "T", 20_000)[20_000] > 0
        with pytest.raises(ResourceCapError,
                           match=r"^horizon 100001 above cap 100000$"):
            tree_complexity(AB13, "T", bispecial.MAX_HORIZON + 1)
        assert generation_stats(AB24, "T", 12).count == 2 ** 12

    def test_roots(self):
        roots = {fam: tree_generation(AB14, fam, 0)[0].word.render()
                 for fam in FAMILIES}
        assert roots == {"T": "", "T1": "1", "T2": "4", "T3": "111", "T4": "444"}


class TestRootOf:
    def test_recovers_generation_and_family(self):
        for ab in (AB12, AB13, AB14, Alphabet(2, 5)):
            families = ("T",) if ab.a == ab.b - 1 else FAMILIES
            for fam in families:
                for g in range(4):
                    for node in tree_generation(ab, fam, g):
                        root, fam2, steps = root_of(node.word)
                        assert (fam2, steps) == (fam, g), (ab, node.word)
                        assert root == bispecial.family_root(ab, fam)

    def test_rejects_neutral_terminal(self):
        with pytest.raises(ValueError):
            root_of(AB14.word("11"))


def ref_root_of(word):
    """`root_of` from the definitions: bispecial by membership of the four
    one-sided extensions, then the word's own chain down to one run."""
    ab, letters = word.alphabet, word.letters
    a, b = ab.a, ab.b
    for v in (bytes([a]) + letters, bytes([b]) + letters,
              letters + bytes([a]), letters + bytes([b])):
        if is_f_smooth(Word(ab, v)) is None:
            raise ValueError(f"{word.render()!r} is not bispecial")
    for steps, cur in enumerate(_derivatives(letters, a, b, _F)):
        if a not in cur or b not in cur:
            break
    root = Word(ab, cur)
    for family in bispecial._families(ab):
        if root == bispecial.family_root(ab, family):
            return root, family, steps
    raise ValueError(
        f"{word.render()!r} reduces to {root.render()!r}, which is not a "
        "strong or weak root; the input was a neutral bispecial word"
    )


WALK_TREE_ALPHABETS = [AB12, AB13, AB14, Alphabet(2, 5)]


def multiplicity_or_none(w):
    try:
        return multiplicity(w)
    except UsageError:
        return None


def member_or_none(w):
    """The height of w's certificate, or None when w is not f-smooth."""
    cert = is_f_smooth(w)
    return None if cert is None else cert.height


PROBES = (member_or_none, left_extensions, right_extensions, is_bispecial,
          multiplicity_or_none)


def probes_alone(w):
    """The probes of w, each on a cleared walk memo."""
    answers = []
    for probe in PROBES:
        _extensions.cache_clear()
        answers.append(probe(w))
    return tuple(answers)


def probes_in_order(w):
    """The probes of w in the benchmark's order, sharing one walk."""
    member = member_or_none(w)
    left, right, flag = left_extensions(w), right_extensions(w), is_bispecial(w)
    return member, left, right, flag, multiplicity(w) if flag else None


def probes_alternating(w):
    """The probes of w, each after the same probe of w's letters over the
    other alphabet of {1,2} and {1,3}."""
    other = Word(AB13 if w.alphabet == AB12 else AB12, w.letters)
    answers = []
    for probe in PROBES:
        probe(other)
        answers.append(probe(w))
    return tuple(answers)


class TestExtensionWalk:
    """The shared-middle walk against membership of each x·w·y."""

    @staticmethod
    def assert_nine_match(ab, letters):
        """The walk of w against one `_derivatives` per x·w·y: its levels and
        what its end derives to are w's chain, its one-sided answers and
        final contexts tell which x·w·y are f-smooth, and a walk of None
        means that none of the nine is."""
        a, b = ab.a, ab.b
        contexts = (b"", bytes([a]), bytes([b]))
        smooth = {(i, j): _is_smooth_bytes(x + letters + y, a, b, _F)
                  for (i, x), (j, y) in product(enumerate(contexts), repeat=2)}
        walk = _extensions(letters, a, b)
        if walk is None:
            assert not any(smooth.values()), (ab, letters)
            return
        levels, (left, middle, right), one_sided = walk
        tail = _derivatives(left[0] + middle + right[0], a, b, _F)
        assert [*levels, *tail] == list(_derivatives(letters, a, b, _F)), (ab, letters)
        sides = ((1, 0), (2, 0), (0, 1), (0, 2))
        assert one_sided == tuple(map(smooth.get, sides)), (ab, letters)
        for i, j in product((1, 2), repeat=2):
            x, y = left[i], right[j]
            got = (x is not None and y is not None
                   and _is_smooth_bytes(x + middle + y, a, b, _F))
            assert got == smooth[i, j], (ab, letters, i, j)

    @pytest.mark.parametrize("ab", SHORT_WORD_ALPHABETS, ids=str)
    def test_nine_extensions_of_short_words(self, ab):
        for letters in short_words(ab):
            self.assert_nine_match(ab, letters)

    @pytest.mark.parametrize("ab", WALK_TREE_ALPHABETS, ids=str)
    def test_nine_extensions_of_tree_vertices(self, ab):
        for _, w in tree_vertices(ab, range(7)):
            self.assert_nine_match(ab, w.letters)

    @pytest.mark.parametrize("ab", [AB12, AB13, AB14, Alphabet(2, 5), Alphabet(1, 6)],
                             ids=str)
    def test_root_of_matches_the_reference(self, ab):
        words = [Word(ab, v) for v in short_words(ab)]
        words += [w for _, w in tree_vertices(ab, range(5))]
        for w in words:
            try:
                expected = ref_root_of(w)
            except ValueError as error:
                with pytest.raises(ValueError) as info:
                    root_of(w)
                assert str(info.value) == str(error)
            else:
                assert root_of(w) == expected, w

    @pytest.mark.parametrize("ab", WALK_TREE_ALPHABETS, ids=str)
    def test_root_of_encodes_each_shared_level_once(self, ab, monkeypatch):
        # one reading of the run boundaries (`_boundary_runs`) per level of
        # the word's chain, shared by all its extensions, plus the one that
        # finds the middle left at the end, whose extensions are read off
        # its runs
        calls = 0
        runs = derivation._boundary_runs

        def counted(*args):
            nonlocal calls
            calls += 1
            return runs(*args)

        monkeypatch.setattr(derivation, "_boundary_runs", counted)
        for g, w in tree_vertices(ab, range(2, 7)):
            _extensions.cache_clear()  # a walk kept by an earlier test costs nothing
            calls = 0
            assert root_of(w)[2] == g
            assert g <= calls <= g + 1, (ab, w, calls)

    @pytest.mark.parametrize("ab", WALK_TREE_ALPHABETS, ids=str)
    def test_probes_of_a_word_share_one_walk(self, ab, monkeypatch):
        # The probes of a κ-factor in the benchmark's order: the certificate
        # walks the word, reading the run boundaries of each of the h
        # nonempty words of its chain once and of the middle left at the
        # end.  The words of at most three runs left at the end of the walk
        # are decided from their runs, so the extension probes, the
        # bispecial flag and the multiplicity read that walk alone.  A
        # left_extensions that walks the word again costs h + 1 readings,
        # and one that derives the short words to their end costs one to
        # three more each.
        calls = 0
        runs = derivation._boundary_runs

        def counted(*args):
            nonlocal calls
            calls += 1
            return runs(*args)

        monkeypatch.setattr(derivation, "_boundary_runs", counted)
        kappa = kappa_prefix(ab, 4000, start=ab.a).letters
        for offset in range(0, 2500, 250):
            w = Word(ab, kappa[offset:offset + 1500])
            _extensions.cache_clear()
            costs = []
            for probe in (is_f_smooth, left_extensions, right_extensions,
                          is_bispecial, multiplicity_or_none):
                calls = 0
                probe(w)
                costs.append(calls)
            h = is_f_smooth(w).height
            member, left, right, flag, mult = costs
            where = (ab, offset, h, costs)
            assert h <= member <= h + 1, where
            assert left == right == flag == mult == 0, where

    @staticmethod
    def assert_probes_match(ab, letters, probe):
        """`probe(w)` gives (height or None, left, right, bispecial flag,
        multiplicity or None) as the oracle does: one `_derivatives` per
        x·w·y."""
        a, b = ab.a, ab.b

        def smooth(x, y):
            return _is_smooth_bytes(bytes(x) + letters + bytes(y), a, b, _F)

        chain = list(_derivatives(letters, a, b, _F))
        member = None if chain[-1] else len(chain) - 1
        left = tuple(c for c in (a, b) if smooth([c], []))
        right = tuple(c for c in (a, b) if smooth([], [c]))
        flag = len(left) == 2 == len(right)
        mult = sum(smooth([x], [y]) for x in (a, b) for y in (a, b)) - 3 if flag else None
        assert probe(Word(ab, letters)) == (member, left, right, flag, mult), (ab, letters)

    @pytest.mark.parametrize("ab", SHORT_WORD_ALPHABETS, ids=str)
    def test_probes_of_short_words(self, ab):
        for letters in short_words(ab, 12):
            self.assert_probes_match(ab, letters, probes_alone)
            self.assert_probes_match(ab, letters, probes_in_order)

    @pytest.mark.parametrize("ab", WALK_TREE_ALPHABETS, ids=str)
    def test_probes_of_tree_vertices(self, ab):
        for _, w in tree_vertices(ab, range(7)):
            self.assert_probes_match(ab, w.letters, probes_alone)
            self.assert_probes_match(ab, w.letters, probes_in_order)

    def test_probes_alternating_alphabets_of_the_same_letters(self):
        # 1^n is a word of {1,2} and of {1,3} with other extensions in each
        # (3·111 is f-smooth over {1,3}; 111 has none over {1,2}): each probe
        # follows one of the same letters over the other alphabet
        for n in range(13):
            for ab in (AB12, AB13):
                self.assert_probes_match(ab, b"\x01" * n, probes_alternating)


class TestGenerationSwap:
    def test_involution_and_length_identity(self):
        for ab in (AB12, AB13, AB24):
            a, b = ab.a, ab.b
            for g in range(1, 5):
                for node in tree_generation(ab, "T", g):
                    u = node.word
                    gu = generation_swap(u)
                    assert generation_swap(gu) == u
                    assert len(u) + len(gu) == (a + b) * len(derive_f(u)) + 4 * a

    def test_swap_stays_in_generation(self):
        for g in range(1, 5):
            level = {n.word for n in tree_generation(AB12, "T", g)}
            assert {generation_swap(u) for u in level} == level
        # generation 0 holds the empty word alone, which has no partner
        with pytest.raises(UsageError,
                           match="^the empty word has no partner vertex$"):
            generation_swap(AB12.empty())


class TestMultiplicitySums:
    def test_consecutive_pair_small(self):
        assert bispecial_multiplicity_sum(AB12, 0) == 1
        assert bispecial_multiplicity_sum(AB12, 1) == 0
        assert bispecial_multiplicity_sum(AB12, 2) == 2

    def test_matches_complexity_second_difference(self):
        for ab in (AB12, AB14):
            table = exact_complexity(ab, 12)
            p = table.p
            for n in range(11):
                b_n = (p[n + 2] - p[n + 1]) - (p[n + 1] - p[n])
                assert bispecial_multiplicity_sum(ab, n) == b_n, (ab, n)

    def test_length_past_the_default_cap_is_refused(self, monkeypatch):
        # the sum spells level n + 2, so n = 188 needs level 190 over {1,2}
        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        with pytest.raises(ResourceCapError, match=r"^level 190 of the "):
            bispecial_multiplicity_sum(AB12, 188)
        assert smoothness._LANGUAGES == {}
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            bispecial_multiplicity_sum(AB12, -1)

    @pytest.mark.parametrize("ab", [AB12, AB13, AB24, Alphabet(2, 5),
                                    Alphabet(1, 255), Alphabet(254, 255)])
    def test_sum_matches_per_word_probes(self, ab):
        # the per-word probes re-derive every extension from scratch; the
        # levels spelled in between move the one level the alphabet keeps
        for n in range(21):
            expect = sum(multiplicity(w)
                         for w in enumerate_f_smooth(ab, n) if is_bispecial(w))
            enumerate_f_smooth(ab, (7 * n) % 23)
            assert bispecial_multiplicity_sum(ab, n) == expect, (ab, n)


class TestGenerationStats:
    def test_total_letters_recurrence(self):
        for ab in (AB12, AB13, AB24):
            a, b = ab.a, ab.b
            prev = 0
            for i in range(8):
                f_i = generation_stats(ab, "T", i).total_len
                if i:
                    assert f_i == (a + b) * prev + 4 * a * 2 ** (i - 1)
                prev = f_i

    def test_total_letters_closed_form(self):
        for ab in (AB12, AB13, AB24):
            a, b = ab.a, ab.b
            c = Fraction(4 * a, a + b - 2)
            for i in range(8):
                expect = c * (a + b) ** i - c * 2 ** i
                assert generation_stats(ab, "T", i).total_len == expect

    def test_histogram_generation_two(self):
        st2 = generation_stats(AB12, "T", 2)
        assert st2.histogram == {5: 4}
        assert st2.total_len == 20

    def test_state_engine_matches_word_engine(self):
        for ab in (AB13, AB24, Alphabet(3, 5), Alphabet(2, 6)):
            fams = FAMILIES if ab.a < ab.b - 1 else ("T",)
            for fam in fams:
                for g in range(6):
                    assert generation_stats(ab, fam, g, method="state") == \
                        generation_stats(ab, fam, g, method="words"), (ab, fam, g)

    def test_state_engine_rejects_mixed_parity(self):
        with pytest.raises(ValueError):
            generation_stats(AB12, "T", 3, method="state")

    def test_unknown_method_is_refused(self):
        with pytest.raises(ValueError, match="unknown method"):
            generation_stats(AB13, "T", 2, method="bogus")

    def test_even_alphabet_trunk_lengths_collapse(self):
        # over even alphabets every trunk word of one generation has the same
        # length, given by a closed form; side families do not collapse
        for ab in (AB24, Alphabet(2, 6)):
            a, b = ab.a, ab.b
            c = Fraction(4 * a, a + b - 2)
            for i in range(7):
                stats = generation_stats(ab, "T", i, method="state")
                expect = c * Fraction(a + b, 2) ** i - c
                assert stats.min_len == stats.max_len == expect

    def test_even_alphabet_balance(self):
        for g in range(1, 5):
            for node in tree_generation(AB24, "T", g):
                w = node.word
                assert w.count(2) == w.count(4)

    def test_first_level_words_over_2_4(self):
        words = sorted(n.word.render() for n in tree_generation(AB24, "T", 1))
        assert words == ["2244", "4422"]
        stats = generation_stats(AB24, "T", 1)
        assert stats.min_len == stats.max_len == 4


class TestComplexity:
    def test_exact_small_values(self):
        assert exact_complexity(AB12, 3).p == (1, 2, 4, 6)

    def test_tree_trunk_reference_value(self):
        assert tree_complexity(AB12, "T", 3)[3] == 2

    def test_bounds_and_equality(self):
        for ab, equality in ((AB12, True), (AB13, False), (AB24, False)):
            exact = exact_complexity(ab, 14).p
            trunk = tree_complexity(ab, "T", 14)
            for n in range(15):
                lower = 1 + n + trunk[n]
                upper = 1 + n + 3 * trunk[n]
                assert lower <= exact[n] <= upper, (ab, n)
                if equality:
                    assert exact[n] == lower

    def test_tree_derived_matches_enumeration(self):
        for ab, n in ((AB12, 14), (AB13, 14), (AB24, 14), (AB14, 14),
                      (Alphabet(2, 5), 40), (Alphabet(1, 6), 40),
                      (Alphabet(1, 5), 40), (Alphabet(3, 5), 40),
                      (Alphabet(3, 8), 40)):
            assert tree_derived_complexity(ab, n).p == exact_complexity(ab, n).p, ab

    @pytest.mark.parametrize("ab", [AB12, AB13, AB14, AB24, Alphabet(2, 5),
                                    Alphabet(1, 6), Alphabet(3, 5)])
    def test_tree_derived_matches_enumeration_to_120(self, ab):
        assert (tree_derived_complexity(ab, 120).p
                == exact_complexity(ab, 120).p)

    @pytest.mark.parametrize("ab", [AB14, Alphabet(2, 5), Alphabet(3, 5),
                                    Alphabet(2, 6), Alphabet(1, 6),
                                    Alphabet(7, 200)])
    def test_signed_sum_matches_each_family_counted_alone(self, ab):
        # the side families' histograms are summed with their signs and
        # counted once; counting each family alone must give the same p, and
        # the columns must match their index-loop definitions
        roots = {len(root) for root in bispecial._roots(ab).values()}
        horizons = {0, 1, 300, 1500} | {n + d for n in roots for d in (-1, 1)}
        for horizon in sorted(horizons - {-1}):
            counts = {family: tree_complexity(ab, family, horizon)
                      for family in bispecial._families(ab)}
            table = tree_derived_complexity(ab, horizon)
            assert table.p == tuple(
                1 + n + sum(bispecial.family_multiplicity(family) * p[n]
                            for family, p in counts.items())
                for n in range(horizon + 1)), horizon
            assert (table.s, table.b, table.lower, table.upper) == \
                reference_columns(table.p, counts["T"], horizon), horizon

    def test_each_level_is_built_once(self, monkeypatch):
        # the walk spells both children of each vertex that has a child whose
        # own children, of length 2a + sum(w), are within the horizon, each
        # once and a block of parents at a time; the rest are counted from
        # their parent's letter sums
        spelled = []
        for ab, family, horizon in ((AB12, "T", 240), (AB14, "T3", 300),
                                    (Alphabet(2, 5), "T1", 400),
                                    (Alphabet(1, 6), "T2", 500)):
            spelled.clear()
            monkeypatch.setattr(bispecial, "_children",
                                recording_blocks(spelled))
            tree_complexity(ab, family, horizon)
            monkeypatch.undo()
            expect = []
            for g in count(1):
                level = [n.word for n in tree_generation(ab, family, g)]
                if min(map(len, level)) > horizon:
                    break
                expect += [w.letters for w in level
                           if min(sum(w.letters), sum(w.complement().letters))
                           <= horizon - 2 * ab.a]
            assert sorted(spelled) == sorted(expect), (ab, family)
            if ab == AB12:
                # unpruned, levels 1..11 would be built: 2^12 - 2 = 4,094
                # words; 966 of the 974 spelled are kept, 8 are siblings
                assert len(spelled) == 974

    def test_pruned_states_are_those_with_children_within_the_horizon(
            self, monkeypatch):
        # the state walk expands one state per distinct parity count of a
        # level's vertices whose children are within the horizon
        expanded = []
        child = bispecial._state_child_a

        def recorded(state, *args):
            expanded.append(state)
            return child(state, *args)

        monkeypatch.setattr(bispecial, "_state_child_a", recorded)
        for ab in (AB13, Alphabet(3, 5)):
            for family in FAMILIES:
                expanded.clear()
                tree_complexity(ab, family, 200)
                expect = []
                for g in count():
                    level = tree_generation(ab, family, g)
                    if min(len(node.word) for node in level) > 200:
                        break
                    expect += {node.word.parity_counts()
                               for node in level
                               if 2 * ab.a + sum(node.word.letters) <= 200}
                assert sorted(expanded) == sorted(expect), (ab, family)

    @pytest.mark.parametrize("ab", [AB12, AB14, Alphabet(2, 3), Alphabet(2, 5),
                                    Alphabet(1, 6)])
    def test_mixed_walk_matches_per_vertex_primitive(self, ab, monkeypatch):
        # parents are spelled a block at a time, each block's children from
        # its text and its swap; tiny blocks put a block cut after every
        # parent
        expect = {(family, horizon): pruned_reference(ab, family, horizon)
                  for family in bispecial._families(ab)
                  for horizon in (0, 7, 40, 150, 260)}
        spelled = []
        monkeypatch.setattr(bispecial, "_children", recording_blocks(spelled))
        for slice_bytes in (None, 1, 2, 3, 5):
            if slice_bytes is not None:
                monkeypatch.setattr(bispecial, "_SLICE", slice_bytes)
            for (family, horizon), (hist, children) in expect.items():
                spelled.clear()
                got = bispecial._pruned_word_histogram(ab, family, horizon)
                assert got == hist, (family, horizon, slice_bytes)
                assert sorted(spelled) == sorted(children), \
                    (family, horizon, slice_bytes)

    @pytest.mark.parametrize("ab", [AB13, Alphabet(3, 5), Alphabet(1, 5),
                                    Alphabet(5, 9), Alphabet(1, 9), AB24])
    def test_state_walk_matches_the_merged_states(self, ab):
        # over odd letters a level is a flat list, one state a vertex, with
        # nothing merged; the Counter merge of the reference gives the same
        # lengths level by level, pruned or not
        for family in FAMILIES:
            for horizon in (0, 9, 60, 400, 2000, math.inf):
                got = bispecial._state_levels(ab, family, horizon)
                want = merged_state_levels(ab, family, horizon)
                if horizon == math.inf:
                    got, want = islice(got, 13), islice(want, 13)
                assert list(map(Counter, got)) == list(want), \
                    (ab, family, horizon)

    @pytest.mark.parametrize("ab", [AB12, AB13, AB14, AB24, Alphabet(2, 5),
                                    Alphabet(1, 6), Alphabet(3, 5)])
    def test_pruned_walk_matches_the_unpruned_levels(self, ab):
        # horizons at every vertex length of levels 0..3, and around each
        # child length 2a + sum(w): the walk prunes past it, and p[h] first
        # counts the child at h = 2a + sum(w) + 2
        a = ab.a
        families = ("T",) if a == ab.b - 1 else FAMILIES
        for family in families:
            horizons = {0, 1, 2, 3}
            for g in range(4):
                for node in tree_generation(ab, family, g):
                    children = 2 * a + sum(node.word.letters)
                    horizons |= {len(node.word), children - 1, children,
                                 children + 1, children + 2}
            hists = []  # the unpruned levels, by generation_stats
            for horizon in sorted(horizons):
                while not hists or min(hists[-1]) <= horizon:
                    hists.append(generation_stats(ab, family, len(hists)).histogram)
                total = Counter()
                for hist in hists:
                    total.update(hist)
                expect = bispecial._complexity_counts(total, horizon)
                assert tree_complexity(ab, family, horizon) == expect, \
                    (ab, family, horizon)

    def test_closed_form_beyond_max_length(self):
        for ab in (AB12, AB13, AB24):
            a, b = ab.a, ab.b
            c = Fraction(4 * a, a + b - 2)
            for i in range(6):
                stats = generation_stats(ab, "T", i)
                horizon = stats.max_len + 4
                p = bispecial._complexity_counts(stats.histogram, horizon)
                for n in range(stats.max_len + 1, horizon + 1):
                    assert p[n] == (n + c - 1) * 2 ** i - c * (a + b) ** i

    def test_horizon_outside_zero_to_cap_is_refused(self):
        for build in (lambda ab, horizon: tree_complexity(ab, "T", horizon),
                      exact_complexity, tree_derived_complexity):
            with pytest.raises(ValueError, match="nonnegative"):
                build(AB12, -1)
            # refused before the horizon-long arrays are allocated
            with pytest.raises(ResourceCapError):
                build(AB12, 10 ** 9)

    def test_enumeration_horizon_is_refused_before_any_work(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a level was walked before the budget check")

        monkeypatch.setattr(smoothness, "_LANGUAGES", {})
        for walk in ("walk", "_step", "_grow"):
            monkeypatch.setattr(smoothness._Automaton, walk, unreachable)
        with pytest.raises(ResourceCapError, match=re.escape(
                "level 190 of the f-smooth words over {1,2} could add "
                "157,020 words to 4,039,361, above the budget of "
                "4,194,304")):
            exact_complexity(AB12, 190)
        assert smoothness._LANGUAGES == {}

    def test_provenance_labels(self):
        assert exact_complexity(AB12, 3).provenance == "enumeration"
        assert tree_derived_complexity(AB12, 3).provenance == "tree-derived"
