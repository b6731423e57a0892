"""Enumeration of the f-smooth words, those whose iterated two-sided
derivative reaches the empty word (`derivation` decides one word).

The language is factorial and extendable, so the enumeration trie `_Trie`
of each alphabet grows one letter at a time.  It lives here with the node
budget of all alphabets' tries together and every count read off a trie:
`f_smooth_count`, `exact_complexity` and `bispecial_multiplicity_sum`.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, repeat
from operator import itemgetter

from .bispecial import (MAX_HORIZON, ComplexityTable, _table, tree_complexity,
                        tree_derived_complexity)
from .errors import ResourceCapError, _check_size
from .words import Alphabet, Word


# Most nodes the tries of all alphabets may hold together: about 18 bytes a
# node, so {1,2} alone stops after length 189 at 85 MB peak RSS.
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


class _Trie:
    """The f-smooth words of one alphabet as a trie of node ids.

    Node 0 is the empty word; every other node is an f-smooth word w, the
    child of w without its last letter.  Levels are built in order, a-child
    before b-child, so the nodes of length n are the ids offsets[n] to
    offsets[n + 1] - 1 in lexicographic order.  Besides its children and
    parent, a node stores the letter and exponent of its last run and
    `inner`: the node of its derivative without the last run's cut (cut of
    the first run, then the interior exponents; the root for a single run).
    A node of length n is one run exactly when that exponent is n.

    Membership of a child w + x is one lookup: the derivative D(w + x) is
    shorter than w + x and the language is factorial, so w + x is f-smooth
    exactly when D(w + x) is an already built node.
    """

    def __init__(self, alphabet: Alphabet):
        a, b = alphabet.a, alphabet.b
        self.alphabet = alphabet
        self.offsets = [0, 1, 3]  # the root, then the words a and b
        self.child = {a: array("i", (1, -1, -1)), b: array("i", (2, -1, -1))}
        self.parent = array("i", (-1, 0, 0))
        self.letter = array("B", (0, a, b))
        self.exponent = array("B", (0, 1, 1))
        self.inner = array("i", (0, 0, 0))

    def grow(self, n: int) -> None:
        """Build every level up to length n, refusing a level that could
        take the trie past TRIE_NODE_LIMIT before building it."""
        offsets = self.offsets
        while len(offsets) <= n + 1:
            lo, hi = offsets[-2], offsets[-1]
            _check_level(self.alphabet, len(offsets) - 1, hi, hi - lo)
            self._build(lo, hi, len(offsets) - 2)
            offsets.append(len(self.parent))

    def _build(self, lo: int, hi: int, n: int) -> None:
        """Append the children of nodes lo .. hi - 1, the level of length n."""
        a, b = self.alphabet.a, self.alphabet.b
        parent, letter, exponent = self.parent, self.letter, self.exponent
        inner, child = self.inner, self.child
        ca, cb = child[a], child[b]
        node = hi
        for w in range(lo, hi):
            c, e, up = letter[w], exponent[w], inner[w]
            # the last run grows: D(w + c) = inner + cut(e + 1)
            same = up if e < a else cb[up] if e < b else -1
            # a new run starts: D = inner + e (e now interior), or cut(e)
            # when w is one run; the new run's cut(1) is empty
            if e == n:
                new = 0 if e <= a else 2
            else:
                new = ca[up] if e == a else cb[up] if e == b else -1
            for x, d in ((a, same), (b, new)) if c == a else ((a, new), (b, same)):
                if d < 0:
                    continue
                child[x][w] = node
                node += 1
                parent.append(w)
                letter.append(x)
                if x == c:
                    exponent.append(e + 1)
                    inner.append(up)
                else:
                    exponent.append(1)
                    inner.append(d)
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


_TRIES: dict[Alphabet, _Trie] = {}


def _language(alphabet: Alphabet, n: int) -> _Trie:
    """The alphabet's trie, grown to length n once its budget admits n; the
    other alphabets' tries are dropped if all would pass TRIE_NODE_LIMIT.
    It is out of `_TRIES` while it grows, so a cut growth leaves no trie."""
    _check_size("enumeration length", n)  # the trie's own budget caps it
    trie = _TRIES.get(alphabet)
    if trie is None or len(trie.offsets) <= n + 1:
        nodes = _check_budget(alphabet, n)
        trie = _TRIES.pop(alphabet, None) or _Trie(alphabet)
        if nodes + sum(len(t.parent) for t in _TRIES.values()) > TRIE_NODE_LIMIT:
            _TRIES.clear()
        trie.grow(n)
        _TRIES[alphabet] = trie
    return trie


def enumerate_f_smooth(alphabet: Alphabet, n: int) -> list[Word]:
    """All f-smooth words of length n, lexicographically ordered.

    Spelled from the alphabet's derivative trie, which is built up from
    length n-1 members by single-letter extension; that is sound and
    complete because the language is factorial and extendable.
    """
    return [Word(alphabet, w) for w in _language(alphabet, n).spell(n)]


def f_smooth_count(alphabet: Alphabet, n: int) -> int:
    """Number of f-smooth words of length n (the factor complexity value)."""
    return len(_language(alphabet, n).level(n))


def exact_complexity(alphabet: Alphabet, horizon: int) -> ComplexityTable:
    """Brute-force complexity table: the level sizes of the enumeration trie."""
    _check_size("horizon", horizon, MAX_HORIZON)
    trie = _language(alphabet, horizon)
    p = tuple(len(trie.level(n)) for n in range(horizon + 1))
    return _table(alphabet, horizon, p, tree_complexity(alphabet, "T", horizon),
                  "enumeration")


def bispecial_multiplicity_sum(alphabet: Alphabet, n: int) -> int:
    """Sum of multiplicities over all bispecial words of length n.

    Read from the derivative trie grown to n + 2: w + y is a child of w,
    and x + w and x + w + y are found by walking down from the node of x.
    """
    _check_size("enumeration length", n)  # the trie's own budget caps it
    a, b = alphabet.a, alphabet.b
    trie = _language(alphabet, n + 2)
    ca, cb = trie.child[a], trie.child[b]
    total = 0
    for w, xa, xb in zip(trie.level(n), trie.prepended(a, n),
                         trie.prepended(b, n)):
        if min(ca[w], cb[w], xa, xb) >= 0:  # bispecial
            total += (ca[xa] >= 0) + (cb[xa] >= 0) + (ca[xb] >= 0) + (cb[xb] >= 0) - 3
    return total
