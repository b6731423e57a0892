"""Enumeration of the f-smooth words, those whose iterated two-sided
derivative reaches the empty word (`derivation` decides one word).

The language is factorial and extendable, so its words grow one letter at a
time.  The automaton `_Automaton` of each alphabet works out the children
of each state of a word once: `f_smooth_count` and `exact_complexity` count
the words a level at a time by state, and the trie `_Trie` that spells them
for `enumerate_f_smooth` and `bispecial_multiplicity_sum` takes its
children from it.  All alphabets share one budget.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress, repeat
from operator import itemgetter

from .bispecial import (MAX_HORIZON, ComplexityTable, _table, tree_complexity,
                        tree_derived_complexity)
from .errors import ResourceCapError, _check_size
from .words import Alphabet, Word


# The budget of one alphabet's trie nodes (17 bytes each), and of all
# alphabets' trie nodes and automaton states (22 bytes each) before another
# grows: {1,2} stops after length 189, whose trie and 202,049 states peak at
# 85 MB RSS.
TRIE_NODE_LIMIT = 1 << 22


def _check_level(alphabet: Alphabet, level: int, nodes: int, words: int) -> None:
    """Refuse level `level` when two children for each of the `words` words
    before it could take the trie's `nodes` nodes past TRIE_NODE_LIMIT."""
    if nodes + 2 * words > TRIE_NODE_LIMIT:
        raise ResourceCapError(
            f"level {level} of the f-smooth words over {alphabet} could add "
            f"{2 * words:,} trie nodes to {nodes:,}, above the budget of "
            f"{TRIE_NODE_LIMIT:,}")


def _check_budget(alphabet: Alphabet, n: int) -> int:
    """Refuse, before any level is built, the first level up to n that
    `_Trie.grow` would refuse, from the level sizes p(k) the bispecial trees
    count exactly; else return the trie's node count once level n is built.
    The count's horizon doubles from 64 up to n; as p(k) >= k + 1, the trie
    passes its budget by level 2,895 over any alphabet."""
    horizon, p = 0, (1, 2)  # the trie starts with the root and both letters
    while horizon < n:
        horizon = min(max(2 * horizon, 64), n)
        p = tree_derived_complexity(alphabet, horizon).p
        for level, nodes, words in zip(range(1, horizon + 1), accumulate(p), p):
            _check_level(alphabet, level, nodes, words)
    return sum(p)


_UNSEEN = -2  # children of a state not yet worked out


class _Automaton:
    """The states of the f-smooth words of one alphabet, in flat columns.

    A word's children follow from its last run's letter and exponent, from
    `inner` (its derivative without the last run's cut: cut of the first
    run, then the interior exponents) and from whether it is one run.  Its
    state keeps the first two and the state of `inner` (-1: one run).  State
    0 is the empty word, 1 and 2 the words a and b.  A state of exponent e >=
    2 has one parent state; the one opening a run of x after inner state d
    is `opened[x][d]`.  `p` counts the words of each length walked, `level`
    those of the last by state.
    """

    def __init__(self, alphabet: Alphabet):
        a, b = alphabet.a, alphabet.b
        self.alphabet = alphabet
        self.letter, self.exponent = array("B", (0, a, b)), array("B", (0, 1, 1))
        self.inner = array("i", (0, -1, -1))
        self.child = {a: array("i", (1, _UNSEEN, _UNSEEN)),
                      b: array("i", (2, _UNSEEN, _UNSEEN))}
        self.opened = {a: array("i", (-1, -1, -1)), b: array("i", (-1, -1, -1))}
        self.p, self.level = [1, 2], {1: 1, 2: 1}
        self.trie = _Trie(alphabet)  # no reference back: both go when dropped

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

    def count(self, n: int) -> None:
        """Walk the levels up to length n, counting their words by state."""
        ca, cb = self.child[self.alphabet.a], self.child[self.alphabet.b]
        while len(self.p) <= n:
            # two states or more: the swap of a word ends in the other letter
            get = itemgetter(*self.level)
            for s in compress(self.level, map(_UNSEEN.__eq__, get(ca))):
                if ca[s] == _UNSEEN:  # unless expanded since as an inner state
                    self._expand(s)
            children, counts = get(ca) + get(cb), tuple(self.level.values()) * 2
            level = dict(zip(children, counts))
            level.pop(-1, None)
            if len(level) < len(children) - children.count(-1):
                level = {}  # words of one state: add up their counts
                for t, m in zip(children, counts):
                    if t >= 0:
                        level[t] = level.get(t, 0) + m
            self.level = level
            self.p.append(sum(level.values()))


class _Trie:
    """The f-smooth words of one alphabet as a trie of node ids.

    Node 0 is the empty word; every other node is an f-smooth word w, the
    child of w without its last letter.  Levels are built in order, a-child
    before b-child, so the nodes of length n are the ids offsets[n] to
    offsets[n + 1] - 1 in lexicographic order.  A node stores its children,
    parent, last letter and automaton state, whose children are its own.
    """

    def __init__(self, alphabet: Alphabet):
        a, b = alphabet.a, alphabet.b
        self.alphabet = alphabet
        self.offsets = [0, 1, 3]  # the root, then the words a and b
        self.child = {a: array("i", (1, -1, -1)), b: array("i", (2, -1, -1))}
        self.parent = array("i", (-1, 0, 0))
        self.letter = array("B", (0, a, b))
        self.state = array("i", (0, 1, 2))

    def grow(self, n: int, automaton: _Automaton) -> None:
        """Build every level up to length n from the automaton's states,
        refusing a level that could take the trie past TRIE_NODE_LIMIT
        before building it."""
        offsets = self.offsets
        while len(offsets) <= n + 1:
            lo, hi = offsets[-2], offsets[-1]
            _check_level(self.alphabet, len(offsets) - 1, hi, hi - lo)
            self._build(lo, hi, automaton)
            offsets.append(len(self.parent))

    def _build(self, lo: int, hi: int, automaton: _Automaton) -> None:
        """Append the children of nodes lo .. hi - 1."""
        a, b = self.alphabet.a, self.alphabet.b
        parent, letter, state = self.parent, self.letter, self.state
        ca, cb = self.child[a], self.child[b]
        sa, sb = automaton.child[a], automaton.child[b]
        node = hi
        for w in range(lo, hi):
            s = state[w]
            if sa[s] == _UNSEEN:
                automaton._expand(s)
            if (t := sa[s]) >= 0:
                ca[w] = node
                node += 1
                parent.append(w)
                letter.append(a)
                state.append(t)
            if (t := sb[s]) >= 0:
                cb[w] = node
                node += 1
                parent.append(w)
                letter.append(b)
                state.append(t)
        ca.extend(repeat(-1, node - hi))
        cb.extend(repeat(-1, node - hi))

    def level(self, n: int) -> range:
        """Node ids of the words of length n."""
        return range(self.offsets[n], self.offsets[n + 1])

    def spell(self, n: int) -> list[bytes]:
        """The words of length n, read off their parent chains one letter
        position at a time, last position first, at C speed."""
        if not n:
            return [b""]
        # at least two ids, so itemgetter returns tuples: the language is
        # closed under swapping the letters
        ids = self.level(n)
        letters = bytearray(n * len(ids))  # letter k of word i at i * n + k
        for k in reversed(range(n)):
            get = itemgetter(*ids)
            letters[k::n] = bytes(get(self.letter))
            ids = get(self.parent)
        letters = bytes(letters)
        return [letters[i:i + n] for i in range(0, len(letters), n)]

    def prepended(self, x: int, n: int) -> list[int]:
        """For every node id w of length n, in order, the node of x + w, or -1.

        Walks down the trie from the node of x one level at a time: x + w is
        a child of x + parent(w) whenever that exists.
        """
        child, offsets = self.child, self.offsets
        nodes = [child[x][0]]
        for k in range(1, n + 1):
            up_lo, lo, hi = offsets[k - 1], offsets[k], offsets[k + 1]
            nodes = [up if (up := nodes[p - up_lo]) < 0 else child[c][up]
                     for p, c in zip(self.parent[lo:hi], self.letter[lo:hi])]
        return nodes


_LANGUAGES: dict[Alphabet, _Automaton] = {}


def _language(alphabet: Alphabet, n: int, spelled: bool = False) -> _Automaton:
    """The alphabet's automaton with its levels counted to length n or, when
    spelled, its trie grown to n, once the trie's budget admits n.  First
    the other alphabets are dropped if all could pass TRIE_NODE_LIMIT.  It is
    out of `_LANGUAGES` while it grows, so a cut growth leaves none of it."""
    _check_size("enumeration length", n)  # the trie's own budget caps it
    automaton = _LANGUAGES.get(alphabet)
    if automaton is None or n >= (len(automaton.trie.offsets) - 1 if spelled
                                  else len(automaton.p)):
        nodes = _check_budget(alphabet, n)
        automaton = _LANGUAGES.pop(alphabet, None) or _Automaton(alphabet)
        # a state a word at most, and a node a word when spelled
        own = max(len(automaton.letter), nodes) + (
            nodes if spelled else len(automaton.trie.parent))
        if own + sum(len(x.letter) + len(x.trie.parent)
                     for x in _LANGUAGES.values()) > TRIE_NODE_LIMIT:
            _LANGUAGES.clear()
        automaton.trie.grow(n, automaton) if spelled else automaton.count(n)
        _LANGUAGES[alphabet] = automaton
    return automaton


def enumerate_f_smooth(alphabet: Alphabet, n: int) -> list[Word]:
    """All f-smooth words of length n, lexicographically ordered.

    Spelled from the alphabet's derivative trie, which is built up from
    length n-1 members by single-letter extension; that is sound and
    complete because the language is factorial and extendable.
    """
    return [Word(alphabet, w) for w in _language(alphabet, n, True).trie.spell(n)]


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

    Read from the derivative trie grown to n + 2: w + y is a child of w,
    and x + w and x + w + y are found by walking down from the node of x.
    """
    _check_size("enumeration length", n)  # the trie's own budget caps it
    a, b = alphabet.a, alphabet.b
    trie = _language(alphabet, n + 2, True).trie
    ca, cb = trie.child[a], trie.child[b]
    total = 0
    for w, xa, xb in zip(trie.level(n), trie.prepended(a, n),
                         trie.prepended(b, n)):
        if min(ca[w], cb[w], xa, xb) >= 0:  # bispecial
            total += (ca[xa] >= 0) + (cb[xa] >= 0) + (ca[xb] >= 0) + (cb[xb] >= 0) - 3
    return total
