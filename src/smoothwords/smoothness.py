"""Enumeration of the f-smooth words, those whose iterated two-sided
derivative reaches the empty word (`derivation` decides one word).

The language is factorial and extendable, so its words grow one letter at a
time.  The automaton `_Automaton` of each alphabet works out the children
of each state of a word once, and walks the levels with one step, from a
level's states to the next one's: `f_smooth_count` and `exact_complexity`
keep the states alone, and `enumerate_f_smooth` and
`bispecial_multiplicity_sum` spell each word beside its state.  Each
alphabet keeps one level, which both walks go on from.  All alphabets share
one budget.
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


# The budget of the words of one alphabet up to a length, one node per word
# as in a trie of them, and of all alphabets' automaton states plus each
# one's kept level before another grows: {1,2} stops after length 189, whose
# 202,049 states and 78,510 spelled words peak at 68 MB RSS.
TRIE_NODE_LIMIT = 1 << 22


def _check_level(alphabet: Alphabet, level: int, nodes: int, words: int) -> None:
    """Refuse level `level` when two children for each of the `words` words
    before it could take the `nodes` words up to it past TRIE_NODE_LIMIT."""
    if nodes + 2 * words > TRIE_NODE_LIMIT:
        raise ResourceCapError(
            f"level {level} of the f-smooth words over {alphabet} could add "
            f"{2 * words:,} trie nodes to {nodes:,}, above the budget of "
            f"{TRIE_NODE_LIMIT:,}")


def _check_budget(alphabet: Alphabet, n: int) -> tuple[int, ...]:
    """Refuse, before any level is walked, the first level k up to n whose
    words, two for each word of length k - 1, could take the words up to
    length k past TRIE_NODE_LIMIT; else return the level sizes p(k) for k
    up to n at least, which the bispecial trees count exactly.  The count's
    horizon doubles from 64 up to n; as p(k) >= k + 1, the budget is passed
    by level 2,895 over any alphabet."""
    horizon, p = 0, (1, 2)
    while horizon < n:
        horizon = min(max(2 * horizon, 64), n)
        p = tree_derived_complexity(alphabet, horizon).p
        for level, nodes, words in zip(range(1, horizon + 1), accumulate(p), p):
            _check_level(alphabet, level, nodes, words)
    return p


_UNSEEN = -2  # children of a state not yet worked out


class _Automaton:
    """The states of the f-smooth words of one alphabet, in flat columns.

    A word's children follow from its last run's letter and exponent, from
    `inner` (its derivative without the last run's cut: cut of the first
    run, then the interior exponents) and from whether it is one run.  Its
    state keeps the first two and the state of `inner` (-1: one run).  State
    0 is the empty word, 1 and 2 the words a and b.  A state of exponent e >=
    2 has one parent state; the one opening a run of x after inner state d
    is `opened[x][d]`.  `p` counts the words of each length walked.  The
    kept level is `n`: `states`, the states of its words in lexicographic
    order, one a word, and `words`, their letters when it was spelled, else
    None.  `sizes` are the level sizes up to the longest length the budget
    has admitted.
    """

    def __init__(self, alphabet: Alphabet):
        a, b = alphabet.a, alphabet.b
        self.alphabet = alphabet
        self.letter, self.exponent = array("B", (0, a, b)), array("B", (0, 1, 1))
        self.inner = array("i", (0, -1, -1))
        self.child = {a: array("i", (1, _UNSEEN, _UNSEEN)),
                      b: array("i", (2, _UNSEEN, _UNSEEN))}
        self.opened = {a: array("i", (-1, -1, -1)), b: array("i", (-1, -1, -1))}
        self.p, self.n, self.states, self.words = [1], 0, [0], [b""]
        self.sizes = (1, 2)

    def _add(self, x: int, e: int, up: int) -> int:
        """A new state: last run x^e, inner state `up`."""
        self.letter.append(x)
        self.exponent.append(e)
        self.inner.append(up)
        for column in self.child.values():
            column.append(_UNSEEN)
        for column in self.opened.values():
            column.append(-1)
        return len(self.letter) - 1

    def _expand(self, s: int) -> None:
        """Work out the children of state s.  A child w + x is f-smooth
        exactly when its derivative, a shorter word, has a state."""
        a, b = self.alphabet.a, self.alphabet.b
        ca, cb = self.child[a], self.child[b]
        c, e, up = self.letter[s], self.exponent[s], self.inner[s]
        if up < 0:  # one run, whose cut is the first run's
            same = 0 if e < a else 2 if e < b else -1
            new = 0 if e <= a else 2
        else:
            if ca[up] == _UNSEEN:
                self._expand(up)
            # the last run grows: D(w + c) = inner + cut(e + 1)
            same = up if e < a else cb[up] if e < b else -1
            # a new run starts: D = inner + e (e now interior); its cut(1)
            # is empty
            new = ca[up] if e == a else cb[up] if e == b else -1
        x = a + b - c
        if same >= 0:
            same = self._add(c, e + 1, up)
        if new >= 0:
            opened = self.opened[x]
            if opened[new] < 0:
                opened[new] = self._add(x, 1, new)
            new = opened[new]
        self.child[c][s], self.child[x][s] = same, new

    def _step(self, states: list, words: list | None) -> tuple:
        """The next level after the one of `states`, and its words when the
        level's `words` are given, else None.  The children of its states
        are worked out where not yet; each state's a-child comes before its
        b-child, and only the children with a state are kept."""
        a, b = self.alphabet.a, self.alphabet.b
        ca, cb = self.child[a], self.child[b]
        # level 0, the empty word, is the only level of one word
        get = (itemgetter(*states) if len(states) > 1
               else lambda column: (column[states[0]],))
        for s in [s for s, c in zip(states, get(ca)) if c == _UNSEEN]:
            if ca[s] == _UNSEEN:  # unless worked out since as an inner state
                self._expand(s)
        children = [0] * (2 * len(states))
        children[::2], children[1::2] = get(ca), get(cb)
        keep = [c >= 0 for c in children]
        if words is not None:
            parents = [b""] * len(children)
            parents[::2] = parents[1::2] = words
            words = list(map(bytes.__add__, compress(parents, keep),
                             compress(cycle((bytes((a,)), bytes((b,)))), keep)))
        return list(compress(children, keep)), words

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
    spelled, its level n spelled.  Only a length past those the budget has
    admitted for the alphabet is checked.  The other alphabets are dropped
    first if all could pass TRIE_NODE_LIMIT, each holding its states and its
    kept level, one entry a word whichever walk kept it.  It is out of
    `_LANGUAGES` while it walks, so a cut walk leaves none of it."""
    _check_size("enumeration length", n)  # the budget caps it
    automaton = _LANGUAGES.get(alphabet)
    if automaton is None or ((n != automaton.n or automaton.words is None)
                             if spelled else n >= len(automaton.p)):
        sizes = (automaton.sizes if automaton is not None
                 and n < len(automaton.sizes) else _check_budget(alphabet, n))
        automaton = _LANGUAGES.pop(alphabet, None) or _Automaton(alphabet)
        automaton.sizes = sizes
        # a state a word at most, and level n kept
        own = max(len(automaton.letter), sum(sizes[:n + 1])) + sizes[n]
        if own + sum(len(x.letter) + len(x.states)
                     for x in _LANGUAGES.values()) > TRIE_NODE_LIMIT:
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
