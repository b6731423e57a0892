"""Enumeration of the f-smooth words, those whose iterated two-sided
derivative reaches the empty word (`derivation` decides one word).

The language is factorial and extendable, so its words grow one letter at a
time.  The automaton `_Automaton` of each alphabet works out the children
of its states once, a batch at a time: each batch takes every state past a
watermark and reads their children off columns that earlier batches
filled.  It walks the levels with one step, from a level's states to the
next one's, which gathers their children and drops the 0s, the children
that are not f-smooth.  `f_smooth_count` and `exact_complexity` keep the
states alone, and `enumerate_f_smooth` and `bispecial_multiplicity_sum`
spell each word beside its state.  Each alphabet keeps one level, which
both walks go on from.  All alphabets share one budget of words.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, compress, cycle
from operator import itemgetter

from .bispecial import (MAX_HORIZON, ComplexityTable, _table, tree_complexity,
                        tree_derived_complexity)
from .errors import ResourceCapError, _check_size
from .words import Alphabet, Word


# The budget of two things.  It bounds the words one walk passes, over every
# level up to the length asked, so its time.  It also bounds the entries all
# alphabets keep before another grows: each one's automaton states plus its
# kept level.  {1,2} stops after length 189, whose 202,049 states and 78,510
# spelled words peak at 67 MB RSS.
WORD_BUDGET = 1 << 22


def _check_level(alphabet: Alphabet, level: int, total: int, words: int) -> None:
    """Refuse level `level` when the `total` words of the levels before it
    and two children for each of the `words` words of the last of them
    could pass WORD_BUDGET."""
    if total + 2 * words > WORD_BUDGET:
        raise ResourceCapError(
            f"level {level} of the f-smooth words over {alphabet} could add "
            f"{2 * words:,} words to {total:,}, above the budget of "
            f"{WORD_BUDGET:,}")


def _check_budget(alphabet: Alphabet, n: int) -> tuple[int, ...]:
    """Refuse, before any level is walked, the first level k up to n whose
    words, two for each word of length k - 1, could take the words a walk
    to length k passes past WORD_BUDGET; else return the level sizes p(k)
    for k up to n at least, which the bispecial trees count exactly.  The
    count's horizon doubles from 64 up to n; as p(k) >= k + 1, the budget
    is passed by level 2,895 over any alphabet."""
    horizon, p = 0, (1, 2)
    while horizon < n:
        horizon = min(max(2 * horizon, 64), n)
        p = tree_derived_complexity(alphabet, horizon).p
        for level, total, words in zip(range(1, horizon + 1), accumulate(p), p):
            _check_level(alphabet, level, total, words)
    return p


def _gather(ids):
    """The entries `ids` of a column, as a tuple even when there is one."""
    return itemgetter(*ids) if len(ids) > 1 else lambda column: (column[ids[0]],)


class _Automaton:
    """The states of the f-smooth words of one alphabet, in flat columns.

    A word's children follow from its last run's letter and exponent, from
    `inner` (its derivative without the last run's cut: cut of the first
    run, then the interior exponents) and from whether it is one run.  Its
    state keeps the first two and the state of `inner` (-1: one run).  State
    0 is the empty word, 1 and 2 the words a and b.  A state of exponent e >=
    2 has one parent state; the one opening a run of x after inner state d
    is `opened[x][d]`, 0 while there is none.

    States are worked out in id order, a batch at a time.  `child[x]` holds
    the state of w + x for each state below its length, the watermark, and 0
    where w + x is not f-smooth: state 0 is nobody's child.  A batch works
    out every state from the watermark to the last one.  The inner state of
    each was worked out in an earlier batch: a same-run child keeps its
    parent's, and a new-run child's is a child of its parent's inner state,
    created when that was worked out, so no later than the batch creating
    the new-run child.  A broken invariant would read past the watermark
    and raise IndexError.

    `p` counts the words of each length walked, from [1, 2]: the one record
    of the sizes admitted by the budget and counted.  The kept level is `n`:
    `states`, the states of its words in lexicographic order, one a word,
    and `words`, their letters when it was spelled, else None.
    """

    def __init__(self, alphabet: Alphabet):
        a, b = alphabet.a, alphabet.b
        self.alphabet = alphabet
        self.letter, self.exponent = array("B", (0, a, b)), array("B", (0, 1, 1))
        self.inner = array("i", (0, -1, -1))
        self.child = {a: array("i", (1,)), b: array("i", (2,))}
        self.opened = {a: array("i"), b: array("i")}
        self.p, self.n, self.states, self.words = [1, 2], 0, [0], [b""]

    def _grow(self) -> None:
        """Work out the states from the watermark to the last one.  A child
        w + x is f-smooth exactly when its derivative, a shorter word, has a
        state: one of the inner state's children, already worked out."""
        a, b = self.alphabet.a, self.alphabet.b
        ca, cb, oa, ob = self.child[a], self.child[b], self.opened[a], self.opened[b]
        letter, exponent, inner = self.letter, self.exponent, self.inner
        low, top = len(ca), len(letter)
        cs, es, ups = letter[low:top], exponent[low:top], inner[low:top]
        gather = _gather(ups)  # one run's -1 reads the last entry, unused
        via_a, via_b = gather(ca), gather(cb)
        # the last run grows: D(w + c) = inner + cut(e + 1), a state when
        # the cut is empty (e < a), or is b and inner + b has a state; one run
        # is cut as a first run, to b when e >= a.  These new states take the
        # ids from top on.
        k = top - 1
        same = [(k := k + 1) if e < a or e < b and (up < 0 or y) else 0
                for e, up, y in zip(es, ups, via_b)]
        letter.extend(compress(cs, same))
        exponent.fromlist([e + 1 for e, s in zip(es, same) if s])
        inner.extend(compress(ups, same))
        # a new run of x starts: D = inner + e (e now interior), its cut(1)
        # empty, and D = cut(e) after one run; d, the state of that, is -1
        # when there is none
        opens = [(0 if e <= a else 2) if up < 0
                 else (y if e == a else z if e == b else 0) or -1
                 for e, up, y, z in zip(es, ups, via_a, via_b)]
        pad = bytes(oa.itemsize * (top - len(oa)))
        oa.frombytes(pad)
        ob.frombytes(pad)
        # a run of a opened after d is keyed d, one of b ~d: the states
        # opening them are added once, as first met
        fresh = dict.fromkeys(d if c == b else ~d for c, d in zip(cs, opens)
                              if d >= 0 and not (ob if c == a else oa)[d])
        for s, d in enumerate(fresh, len(letter)):
            if d >= 0:
                oa[d] = s
            else:
                ob[~d] = s
        letter.extend(a if d >= 0 else b for d in fresh)
        exponent.frombytes(bytes((1,)) * len(fresh))
        inner.extend(d if d >= 0 else ~d for d in fresh)
        new = [(ob if c == a else oa)[d] if d >= 0 else 0
               for c, d in zip(cs, opens)]
        ca.fromlist([s if c == a else t for c, s, t in zip(cs, same, new)])
        cb.fromlist([t if c == a else s for c, s, t in zip(cs, same, new)])

    def _step(self, states: list, words: list | None) -> tuple:
        """The next level after the one of `states`, and its words when the
        level's `words` are given, else None.  The automaton grows first
        if a state is past the watermark; each state's a-child comes before
        its b-child, and only the children with a state are kept."""
        a, b = self.alphabet.a, self.alphabet.b
        ca, cb = self.child[a], self.child[b]
        if max(states) >= len(ca):
            self._grow()
        get = _gather(states)
        children = [0] * (2 * len(states))
        children[::2], children[1::2] = get(ca), get(cb)
        if words is not None:
            parents = [b""] * len(children)
            parents[::2] = parents[1::2] = words
            words = list(map(bytes.__add__, compress(parents, children),
                             compress(cycle((bytes((a,)), bytes((b,)))), children)))
        return list(filter(None, children)), words

    def walk(self, n: int, spelled: bool) -> None:
        """Keep level n, its words spelled when `spelled`: on from the kept
        level, unless that is longer, or `spelled` and it was only counted,
        in which case from the empty word.  Each level past `p` is counted
        into it."""
        if n < self.n or spelled and self.words is None:
            self.n, self.states, self.words = 0, [0], [b""]
        states, words = self.states, self.words if spelled else None
        for k in range(self.n + 1, n + 1):
            states, words = self._step(states, words)
            if k == len(self.p):
                self.p.append(len(states))
        self.n, self.states, self.words = n, states, words


_LANGUAGES: dict[Alphabet, _Automaton] = {}


def _language(alphabet: Alphabet, n: int, spelled: bool = False) -> _Automaton:
    """The alphabet's automaton with its levels counted to length n or, when
    spelled, its level n spelled.  Only a length past `p`, the one record of
    the sizes admitted and counted, is checked.  The other alphabets are
    dropped first if all could pass WORD_BUDGET, each holding its states and
    its kept level, one entry a word whichever walk kept it.  It is out of
    `_LANGUAGES` while it walks, so a cut walk leaves none of it."""
    _check_size("enumeration length", n)  # the budget caps it
    automaton = _LANGUAGES.get(alphabet)
    if automaton is None or ((n != automaton.n or automaton.words is None)
                             if spelled else n >= len(automaton.p)):
        p = (automaton.p if automaton is not None and n < len(automaton.p)
             else _check_budget(alphabet, n))
        automaton = _LANGUAGES.pop(alphabet, None) or _Automaton(alphabet)
        # a state a word at most, and level n kept
        own = max(len(automaton.letter), sum(p[:n + 1])) + p[n]
        if own + sum(len(x.letter) + len(x.states)
                     for x in _LANGUAGES.values()) > WORD_BUDGET:
            _LANGUAGES.clear()
        automaton.walk(n, spelled)
        _LANGUAGES[alphabet] = automaton
    return automaton


def enumerate_f_smooth(alphabet: Alphabet, n: int) -> list[Word]:
    """All f-smooth words of length n, lexicographically ordered.

    Spelled from the alphabet's automaton by single-letter extension of the
    length n-1 members; that is sound and complete because the language is
    factorial and extendable.
    """
    return [Word(alphabet, w) for w in _language(alphabet, n, True).words]


def f_smooth_count(alphabet: Alphabet, n: int) -> int:
    """Number of f-smooth words of length n (the factor complexity value)."""
    return _language(alphabet, n).p[n]


def exact_complexity(alphabet: Alphabet, horizon: int) -> ComplexityTable:
    """Brute-force complexity table: every f-smooth word up to the horizon,
    counted a level at a time by automaton state, without spelling any."""
    _check_size("horizon", horizon, MAX_HORIZON)
    p = tuple(_language(alphabet, horizon).p[:horizon + 1])
    return _table(alphabet, horizon, p, tree_complexity(alphabet, "T", horizon),
                  "enumeration")


def bispecial_multiplicity_sum(alphabet: Alphabet, n: int) -> int:
    """Sum of multiplicities over all bispecial words of length n.

    Read off the words of length n + 2: as the language is extendable, their
    prefixes are the words of length n + 1, and their middles w come once
    for each x + w + y.  A word w whose four one-letter extensions are words
    is bispecial, of multiplicity its count of x + w + y less 3.
    """
    _check_size("enumeration length", n)  # n + 2 alone would pass -1 and -2
    words = _language(alphabet, n + 2, True).words
    shorter = {u[:-1] for u in words}
    a, b = bytes((alphabet.a,)), bytes((alphabet.b,))
    return sum(m - 3 for w, m in Counter(u[1:-1] for u in words).items()
               if m > 1 and a + w in shorter and b + w in shorter
               and w + a in shorter and w + b in shorter)
