"""Bispecial words of the f-smooth language, their trees, and complexity.

A word u is bispecial when both letters extend it on each side inside the
language.  Its multiplicity is the number of two-sided extensions x u y in
the language minus three, and lies in {-1, 0, +1} (weak, neutral, strong).

Long bispecial words derive to bispecial words of the same multiplicity, so
every one reduces to a short root.  The strong roots are the empty word and,
when a < b - 1, a^a and b^a; the weak roots (a < b - 1 only) are a^(b-1) and
b^(b-1).  Growing each root with the two primitive constructors yields five
complete binary trees whose level populations drive the factor complexity of
the whole language through second differences.

The probes `is_bispecial`, `multiplicity` and `root_of` read the word's
extension walk, `derivation._extensions`, shared with every other probe of
the word: `is_bispecial` its one-sided answers, `multiplicity` its final
contexts, whose four two-sided words `derivation._ends_smooth` decides from
their runs, and `root_of` the word's own chain, followed down to the root.

Level statistics are computed two ways: materializing the words, or walking
exact parity-count states (possible when both letters share a parity, since
the child counts are then a linear function of the parent state).  The two
routes are cross-checked in the test suite.  Over odd letters every vertex
has its own state, so a state level is a flat list, one state a vertex; over
even letters it holds at most two states, merged with their multiplicities.
A materialized level is spelled a block of parents at a time, not one
`primitive` per child: the exponents a, w1, a, a, w2, a, ... of a block go
through one run-spelling call, and the text is cut at the children's
lengths, 2a + sum(w) each.  Each child's sibling is its complement, the
letters swapped, so one swap of the whole block gives the other half of the
level.

The complexity walk stops at its horizon: both children of a vertex w have
length 2a + sum(w), so a vertex whose children pass the horizon is not
expanded.  Over one parity it is the state walk, pruned.  Over a mixed
alphabet only the parents with a child whose own children are within the
horizon, which their letter sums tell, are spelled in blocks as above, and
of their children those within it are kept.  The unpruned level walks behind
`tree_generation` and `generation_stats` remain, with their size budgets,
as the oracle the pruned walks are tested against.  The complexity is linear
in the length histograms, so the side families' are summed with their signs
and counted once.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, islice
from math import inf, log
from operator import add, sub
from typing import Iterator

from .derivation import _F, _derivatives, _ends_smooth, _extensions, derive_f
from .errors import (FAMILIES, MAX_GENERATION, InvalidFamilyError,
                     ResourceCapError, UsageError, _check_size)
from .words import Alphabet, Parity, Word, _blocks, _Record, _spell, _swap_table

MATERIALIZE_LETTER_LIMIT = 80_000_000
# Distinct parity-count states of one level: exactly 2^g at generation g
# over odd letters, one per vertex, and at most two over even letters.
STATE_LIMIT = 2 ** 20
# Longest complexity horizon.  Every family keeps one array of this length,
# and the pruned state walk over {1,3}, the costliest, builds its whole table
# at this horizon in about a second.
MAX_HORIZON = 100_000
# Budget on horizon^(log(a+b) / log((a+b)/2)), Sing's growth exponent, which
# the letters a pruned walk over a mixed alphabet builds grow like: between
# 1526^e and 1527^e for {1,2}, the largest horizon that alphabet reached
# under the 80,000,000-letter level budget of the unpruned walk.
MIXED_WALK_LIMIT = 423_000_000


# -- primitives -----------------------------------------------------------


def primitive(word: Word, first_letter: int) -> Word:
    """Shortest word starting with `first_letter` whose derivative is `word`.

    Runs alternate from the chosen letter and carry exponents a, then the
    letters of `word`, then a.  The two-sided derivative inverts it exactly.
    Its length, 2a plus the letter sum of `word`, is checked against the
    letter budget before any letter is spelled.
    """
    ab = word.alphabet
    if first_letter not in (ab.a, ab.b):
        raise UsageError(f"letter {first_letter} not in {ab}")
    letters = 2 * ab.a + sum(word.letters)
    if letters > MATERIALIZE_LETTER_LIMIT:
        raise ResourceCapError(
            f"primitive of a {len(word):,}-letter word over {ab} would have "
            f"{letters:,} letters, above the budget of "
            f"{MATERIALIZE_LETTER_LIMIT:,}"
        )
    edge = bytes((ab.a,))
    return Word(ab, _spell(edge + word.letters + edge, first_letter,
                           ab.other(first_letter)))


# -- bispecial probes -----------------------------------------------------


def _bispecial_walk(word: Word):
    """The extension walk of a bispecial word, or None for any other word."""
    walk = _extensions(word.letters, word.alphabet.a, word.alphabet.b)
    return walk if walk is not None and all(walk[2]) else None


def is_bispecial(word: Word) -> bool:
    """Both letters extend the word on each side within the language."""
    return _bispecial_walk(word) is not None


def multiplicity(word: Word) -> int:
    """Two-sided extension count minus three, for bispecial words, read off
    the final contexts of the word's extension walk."""
    walk = _bispecial_walk(word)
    if walk is None:
        raise UsageError(f"{word.render()!r} is not bispecial")
    a, b = word.alphabet.a, word.alphabet.b
    _, (left, middle, right), _ = walk
    return sum(_ends_smooth(x, middle, y, a, b)
               for x in left[1:] for y in right[1:]) - 3


# -- tree families --------------------------------------------------------


class BispecialNode(_Record):
    """A vertex of a bispecial tree family."""

    __slots__ = ("word", "family", "generation", "multiplicity")


def _families(alphabet: Alphabet) -> tuple[str, ...]:
    """The families over the alphabet: only T when the letters are consecutive."""
    return FAMILIES[:1] if alphabet.a == alphabet.b - 1 else FAMILIES


def _roots(alphabet: Alphabet) -> dict[str, bytes]:
    """The letters of each family's root over the alphabet."""
    a, b = alphabet.a, alphabet.b
    roots = {
        "T": b"",
        "T1": bytes([a]) * a,
        "T2": bytes([b]) * a,
        "T3": bytes([a]) * (b - 1),
        "T4": bytes([b]) * (b - 1),
    }
    return {family: roots[family] for family in _families(alphabet)}


def family_root(alphabet: Alphabet, family: str) -> Word:
    if family not in FAMILIES:
        raise InvalidFamilyError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family not in _families(alphabet):
        raise InvalidFamilyError(
            f"family {family} does not exist over {alphabet}: "
            "only the empty-rooted tree when the letters are consecutive"
        )
    return Word(alphabet, _roots(alphabet)[family])


def family_multiplicity(family: str) -> int:
    return -1 if family in ("T3", "T4") else 1


def _about(n: int) -> str:
    """n with separators up to 15 digits, else like 5.82e503, with no float."""
    digits = str(n)
    if len(digits) <= 15:
        return f"{n:,}"
    lead = str((int(digits[:4]) + 5) // 10)  # 1000 when 9995 rounds up
    return f"{lead[0]}.{lead[1:3]}e{len(digits) + len(lead) - 4}"


def _children(parents: list[bytes], a: int, b: int) -> list[bytes]:
    """Both children of every parent, in no promised order, spelled a block
    of about `words._SLICE` parent letters at a time: one `_spell` call and
    one swap of the letters a block (see the module docstring)."""
    swap = _swap_table(a, b)
    edge, seam = bytes((a,)), bytes((a, a))
    children = []
    for block in _blocks(parents):
        spelled = _spell(edge + seam.join(block) + edge, a, b)
        ends = list(accumulate([2 * a + a * len(w) + (b - a) * w.count(b)
                                for w in block]))
        cuts = list(map(slice, [0, *ends], ends))
        children += map(spelled.__getitem__, cuts)
        children += map(spelled.translate(swap).__getitem__, cuts)
    return children


def _word_level(alphabet: Alphabet, family: str, generation: int) -> list[bytes]:
    """Level `generation` as a list of byte strings, refused up front past
    the ceiling or the letter budget.  The budget's estimate,
    (len(root) + 4a / d) * (a + b)^g with d = a + b - 2, grows with g, so
    checking the level asked for covers every level built on the way.

    Each level is spelled by `_children`, so a spelled text holds one
    block's children at most.  The words are those of two `primitive` calls
    per parent, in another order."""
    _check_size("generation", generation, MAX_GENERATION)
    a, b = alphabet.a, alphabet.b
    root = family_root(alphabet, family).letters
    d = a + b - 2
    letters = (len(root) * d + 4 * a) * (a + b) ** generation
    if letters > MATERIALIZE_LETTER_LIMIT * d:
        raise ResourceCapError(
            f"generation {generation} of {family} over {alphabet} would "
            f"materialize about {_about((2 * letters + d) // (2 * d))} "
            f"letters, above the budget of {MATERIALIZE_LETTER_LIMIT:,}"
        )
    level = [root]
    for _ in range(generation):
        level = _children(level, a, b)
    return level


def tree_generation(alphabet: Alphabet, family: str,
                    generation: int) -> list[BispecialNode]:
    """All vertices at the given depth, sorted, as BispecialNode values."""
    level = _word_level(alphabet, family, generation)
    mult = family_multiplicity(family)
    return [
        BispecialNode(Word(alphabet, w), family, generation, mult)
        for w in sorted(level)
    ]


# -- level statistics -----------------------------------------------------


class GenerationStats(_Record):
    """Length statistics of one tree level."""

    __slots__ = ("family", "generation", "count", "min_len", "max_len", "total_len",
                 "histogram")


def _state_child_a(state: tuple[int, int, int, int], a: int, b: int,
                   parity_class: Parity) -> tuple[int, int, int, int]:
    """Parity counts of the a-rooted child, exact for single-parity alphabets.

    Odd letters: every run of the child starts at a position of known parity,
    which gives an affine recurrence on the four counts (the constant depends
    on the parent's length parity).  Even letters: all runs of the child have
    even length, so each parity class receives exactly half of each letter.
    """
    ae, ao, be, bo = state
    odd_length = (ae + ao + be + bo) & 1
    if parity_class is Parity.ODD:
        dam, dap = (a - 1) // 2, (a + 1) // 2
        dbm, dbp = (b - 1) // 2, (b + 1) // 2
        if not odd_length:
            return (
                dam * ae + dbm * be + dam,
                dap * ae + dbp * be + dap,
                dap * ao + dbp * bo + dap,
                dam * ao + dbm * bo + dam,
            )
        return (
            dam * ae + dbm * be + (a - 1),
            dap * ae + dbp * be + (a + 1),
            dap * ao + dbp * bo,
            dam * ao + dbm * bo,
        )
    if parity_class is Parity.EVEN:
        count_a = a + a * ae + b * be + a * odd_length
        count_b = a * ao + b * bo + a * (1 - odd_length)
        return (count_a // 2, count_a // 2, count_b // 2, count_b // 2)
    raise ValueError("state recurrence needs both letters of one parity")


def _state_levels(alphabet: Alphabet, family: str, horizon: float) -> Iterator:
    """The lengths of each level's vertices from level 0 on, in a form
    `Counter.update` counts, from parity-count states: a flat list, one a
    vertex, over odd letters, and a Counter of at most two states and their
    multiplicities over even ones.  A state is expanded only when its
    children, of length 2a + a(ae + ao) + b(be + bo), are within the
    horizon (`inf` for every level)."""
    a, b, parity_class = alphabet.a, alphabet.b, alphabet.parity
    limit = horizon - 2 * a
    root = family_root(alphabet, family).parity_counts()
    if parity_class is Parity.ODD:
        level = [root]
        while level:
            yield map(sum, level)
            children = []
            for state in level:
                if a * (state[0] + state[1]) + b * (state[2] + state[3]) <= limit:
                    ae, ao, be, bo = _state_child_a(state, a, b, parity_class)
                    children += (ae, ao, be, bo), (be, bo, ae, ao)  # and sibling
            level = children
        return
    states = Counter([root])
    while states:
        lengths, children = Counter(), Counter()
        for state, mult in states.items():
            lengths[sum(state)] += mult
            if a * (state[0] + state[1]) + b * (state[2] + state[3]) <= limit:
                ae, ao, be, bo = _state_child_a(state, a, b, parity_class)
                children[ae, ao, be, bo] += mult
                children[be, bo, ae, ao] += mult
        yield lengths
        states = children


def _state_level(alphabet: Alphabet, family: str, generation: int) -> Counter:
    """Length histogram of level `generation`, from `_state_levels`.  A level
    holds 2^g distinct states over odd letters, one per vertex, and at most
    two over even ones, so its budget is decided first."""
    _check_size("generation", generation, MAX_GENERATION)
    family_root(alphabet, family)  # an unknown family is named before the budget
    if alphabet.parity is Parity.ODD and 2 ** generation > STATE_LIMIT:
        raise ResourceCapError(
            f"generation {generation} of {family} over {alphabet} could hold "
            f"{2 ** generation:,} distinct parity-count states, above the "
            f"budget of {STATE_LIMIT:,}"
        )
    levels = _state_levels(alphabet, family, inf)
    return Counter(next(islice(levels, generation, None)))


def generation_stats(alphabet: Alphabet, family: str, generation: int, *,
                     method: str = "auto") -> GenerationStats:
    """Level statistics, via 'words', 'state', or 'auto' dispatch.

    'auto' walks exact parity-count states when both letters share a parity
    and materializes words otherwise (mixed parity breaks the recurrence).
    """
    if method == "auto":
        method = "words" if alphabet.parity is Parity.MIXED else "state"
    if method == "words":
        hist = Counter(map(len, _word_level(alphabet, family, generation)))
    elif method != "state":
        raise UsageError(f"unknown method {method!r}")
    elif alphabet.parity is Parity.MIXED:
        raise UsageError(
            "state-based statistics need both letters of one parity; "
            "use method='words'"
        )
    else:
        hist = _state_level(alphabet, family, generation)
    return GenerationStats(
        family=family,
        generation=generation,
        count=sum(hist.values()),
        min_len=min(hist),
        max_len=max(hist),
        total_len=sum(length * mult for length, mult in hist.items()),
        histogram=dict(sorted(hist.items())),
    )


# -- reduction to roots ---------------------------------------------------


def root_of(word: Word) -> tuple[Word, str, int]:
    """Reduce a bispecial word to its family root: (root, family, steps).

    The shared levels of the extension walk are the word's own chain; the
    rest of it starts from the walk's (none, none) context."""
    walk = _bispecial_walk(word)
    if walk is None:
        raise UsageError(f"{word.render()!r} is not bispecial")
    ab = word.alphabet
    a, b = ab.a, ab.b
    levels, (left, middle, right), _ = walk
    chain = _derivatives(left[0] + middle + right[0], a, b, _F)
    for steps, cur in enumerate(chain, len(levels)):
        if a not in cur or b not in cur:  # fewer than two runs
            break
    root = Word(ab, cur)
    for family, letters in _roots(ab).items():
        if cur == letters:
            return root, family, steps
    raise UsageError(
        f"{word.render()!r} reduces to {root.render()!r}, which is not a "
        "strong or weak root; the input was a neutral bispecial word"
    )


def generation_swap(word: Word) -> Word:
    """The length-coupled partner vertex: complement the derivative, then
    rebuild with the complementary first letter."""
    ab = word.alphabet
    if not word:
        raise UsageError("the empty word has no partner vertex")
    return primitive(derive_f(word).complement(), ab.other(word.letters[0]))


# -- complexity -----------------------------------------------------------


def _complexity_counts(hist: dict[int, int], horizon: int) -> tuple[int, ...]:
    """Count array p of a length histogram: p[n] sums, over m < n, the number
    of vertices shorter than m."""
    # s[n] counts vertices shorter than n; p[n] is the partial sum of s.
    s = accumulate((hist.get(n, 0) for n in range(horizon)), initial=0)
    return tuple(islice(accumulate(s, initial=0), horizon + 1))


def _pruned_word_histogram(alphabet: Alphabet, family: str,
                           horizon: int) -> Counter:
    """Length histogram of the vertices, complete up to the horizon, spelling
    only the vertices whose children are within it.

    Both children of w have length 2a + sum(w).  With S1 and S2 the sums of
    the letters of w at even and odd indices, the child with first letter x
    (other letter y) has letter sum a*x + y*S1 + x*S2 + a*(x if len(w) is odd
    else y), so a parent whose two children both have children past the
    horizon is not spelled: its children are counted by their length alone.
    The other parents are spelled by `_children`.  Where only one child of a
    parent has its children within the horizon, the one kept is told by its
    own letter sum; counting that for every child would cost {1,2} about 5 %.
    """
    a, b = alphabet.a, alphabet.b
    limit = horizon - 2 * a
    root = family_root(alphabet, family).letters
    hist = Counter([len(root)])
    level = [root]
    while level:
        both, one = [], []
        for w in level:
            even, odd = w[0::2], w[1::2]
            s1 = a * len(even) + (b - a) * even.count(b)
            s2 = a * len(odd) + (b - a) * odd.count(b)
            hist[2 * a + s1 + s2] += 2
            last_a, last_b = (a, b) if len(w) & 1 else (b, a)
            sums = (a * a + b * s1 + a * s2 + a * last_a,
                    a * b + a * s1 + b * s2 + a * last_b)  # of the children
            if max(sums) <= limit:
                both.append(w)
            elif min(sums) <= limit:
                one.append(w)
        level = _children(both, a, b)
        level += [c for c in _children(one, a, b)
                  if a * len(c) + (b - a) * c.count(b) <= limit]
    return hist


def _family_histogram(alphabet: Alphabet, family: str, horizon: int) -> Counter:
    """Length histogram of one family's vertices, complete up to the horizon.

    The walk stops at the horizon: both children of a vertex w have length
    2a + sum(w), longer than w, so a vertex whose children pass the horizon
    has no descendant within it and is not expanded.  Single-parity
    alphabets walk parity-count states, mixed ones materialize words a block
    of parents at a time with a two-level length lookahead.  The horizon is
    refused before any work when the materialized walk would grow past its
    budget.  The unpruned level walks of `tree_generation` and
    `generation_stats` are the oracle the tests compare this walk with.
    """
    _check_size("horizon", horizon, MAX_HORIZON)
    if alphabet.parity is Parity.MIXED:
        a_plus_b = alphabet.a + alphabet.b
        exponent = log(a_plus_b) / log(a_plus_b / 2)
        growth = horizon ** exponent
        if growth > MIXED_WALK_LIMIT:
            raise ResourceCapError(
                f"horizon {horizon} over {alphabet}: its materialized tree walk "
                f"grows like horizon^{exponent:.4f} = {growth:,.0f}, above the "
                f"budget of {MIXED_WALK_LIMIT:,}"
            )
        return _pruned_word_histogram(alphabet, family, horizon)
    hist = Counter()
    for lengths in _state_levels(alphabet, family, horizon):
        hist.update(lengths)
    return hist


def tree_complexity(alphabet: Alphabet, family: str,
                    horizon: int) -> tuple[int, ...]:
    """Count array p of one family's vertices by length up to the horizon."""
    hist = _family_histogram(alphabet, family, horizon)
    return _complexity_counts(hist, horizon)


class ComplexityTable(_Record):
    """Factor complexity p with finite differences s and b, plus tree bounds.

    `provenance` records how p was obtained: 'enumeration' counts words
    directly, 'tree-derived' evaluates the exact identity built from the
    bispecial trees.
    """

    __slots__ = ("alphabet", "horizon", "p", "s", "b", "lower", "upper", "provenance")


def _table(alphabet: Alphabet, horizon: int, p: tuple[int, ...],
           p_T: tuple[int, ...], provenance: str) -> ComplexityTable:
    """Complete p with its differences and the bounds from the T-tree's p_T."""
    s = tuple(map(sub, p[1:], p))
    b = tuple(map(sub, s[1:], s))
    lower = tuple(map(add, range(1, horizon + 2), p_T))
    upper = tuple(map(add, lower, map(add, p_T, p_T)))
    return ComplexityTable(alphabet, horizon, p, s, b, lower, upper, provenance)


def tree_derived_complexity(alphabet: Alphabet, horizon: int) -> ComplexityTable:
    """Complexity table from the bispecial trees alone.

    With consecutive letters the empty-rooted tree is everything:
    p(n) = 1 + n + p_T(n).  Otherwise the two strong families add and the
    two weak families subtract: p(n) = 1 + n + p_T + p_T1 + p_T2 - p_T3 - p_T4.
    Both identities are exact, not bounds.  The side families' histograms
    are summed with their signs, and that sum is counted once beside p_T.
    """
    p_T = tree_complexity(alphabet, "T", horizon)
    p = map(add, range(1, horizon + 2), p_T)  # 1 + n + p_T
    sides = _families(alphabet)[1:]
    if sides:
        signed = Counter()
        for family in sides:
            hist = _family_histogram(alphabet, family, horizon)
            if family_multiplicity(family) > 0:
                signed.update(hist)
            else:
                signed.subtract(hist)
        p = map(add, p, _complexity_counts(signed, horizon))
    return _table(alphabet, horizon, tuple(p), p_T, "tree-derived")
