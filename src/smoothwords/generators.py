"""Self-reading generators for infinite smooth words.

The generalized Kolakoski word over {a, b} starting with a chosen letter is
its own run-length encoding: a read cursor walks the emitted letters and each
value read becomes the exponent of the next run, with run letters
alternating.  When the read cursor catches up with the write position the
exponent is the letter about to be written, which is the unique
self-consistent choice; this is what lets fixed points starting with the
smaller letter bootstrap.

Coupled pairs generalize this: two words x and y where the run exponents of
x spell out y and vice versa.  Over {1, b} with b odd and seeds x starting
with 1, y starting with b, the two streams determine each other.  Each step
extends y, then x, by the runs whose exponents the partner has already
spelled; y goes first because run 1 of x reads y[1], which the seed y = b
lacks.  A step that finds no unread exponent raises ConstructionError
instead of guessing one.

The f-smooth words are the factors of smooth words: `embed_left` makes one
the suffix of an r-smooth word, which `build_smooth_from_r` then extends.
The extension keeps a stack of the iterated right derivatives' last runs,
so it costs amortised O(1) per letter; like the other generators, its
length is capped at `MAX_PREFIX_LETTERS`.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from .derivation import _F, _PREFIX, _R, _derivatives, _is_smooth_bytes
from .errors import ConstructionError, UsageError, _check_size
from .words import Alphabet, Word, _boundary_runs, _Record, _spell

# Longest prefix either generator builds, at one byte per letter.
MAX_PREFIX_LETTERS = 10_000_000

# Runs one extension step spells at most; bounds each step's scratch memory.
_STEP_RUNS = 2 ** 12


def _extend(word: bytearray, runs: int, source: bytearray, first: int,
            second: int) -> int:
    """Append the next runs of a self-reading word and return its run count.

    `word` holds its first `runs` runs; run i carries `first` for even i and
    `second` for odd i, and its exponent is `source[i]`.  At most
    `_STEP_RUNS` runs are appended, and only those whose exponent `source`
    already holds.
    """
    stop = min(runs + _STEP_RUNS, len(source))
    if stop <= runs:
        raise ConstructionError(
            f"self-reading generator starved: run {runs} needs an unseen exponent")
    if runs % 2:
        first, second = second, first
    word += _spell(source[runs:stop], first, second)
    return stop


def kappa_prefix(alphabet: Alphabet, length: int, start: Optional[int] = None) -> Word:
    """Length-n prefix of the self-reading fixed point.

    `start` defaults to the larger letter, the classical convention.
    """
    _check_size("length", length, MAX_PREFIX_LETTERS)
    if start is None:
        start = alphabet.b
    if start not in (alphabet.a, alphabet.b):
        raise UsageError(f"start letter {start} not in {alphabet}")
    other = alphabet.other(start)
    # Runs 0 and 1 read positions 0 and 1, which they write themselves;
    # position 1 holds `other` when start is 1.
    word = bytearray(_spell(bytes([start, start if start > 1 else other]),
                            start, other))
    runs = 2
    while len(word) < length:
        runs = _extend(word, runs, word, start, other)
    del word[length:]
    return Word(alphabet, bytes(word))


def coupled_pair_prefix(alphabet: Alphabet, length: int) -> tuple[Word, Word]:
    """Length-n prefixes of the coupled pair (x, y) seeded by (1, b)."""
    _check_size("length", length, MAX_PREFIX_LETTERS)
    if alphabet.a != 1 or alphabet.b % 2 == 0 or alphabet.b < 3:
        raise UsageError(
            f"coupled pair needs alphabet {{1, b}} with odd b >= 3, got {alphabet}"
        )
    b = alphabet.b
    x, y = bytearray([1] * b), bytearray([b])  # run 0 of each reads the other
    x_runs = y_runs = 1
    while len(x) < length or len(y) < length:
        y_runs = _extend(y, y_runs, x, b, 1)
        x_runs = _extend(x, x_runs, y, 1, b)
    del x[length:], y[length:]
    return Word(alphabet, bytes(x)), Word(alphabet, bytes(y))


class EmbeddingWitness(_Record):
    """A left extension v for u such that v + u is r-smooth."""

    __slots__ = ("left_extension", "combined")


def embed_left(word: Word) -> EmbeddingWitness:
    """Left extension turning an f-smooth word into an r-smooth one.

    Recursive construction along the derivative chain.  The base case embeds
    the empty word into a^b b^a.  For u with first run exponent p1 and a
    witness v for its derivative (v + derivative r-smooth), the combined word
    is rebuilt from run exponents: the letters of v, then (only if p1 > a)
    one b, then u's exponents from the second run on.  Letters alternate and
    are anchored so the last run carries u's last letter; the result then
    ends with u itself and right-derives to v + derivative.

    The witness is checked before returning: the extension has length at
    least a + b and the combined word is r-smooth.
    """
    ab = word.alphabet
    a, b = ab.a, ab.b
    chain = list(_derivatives(word.letters, a, b, _F))
    if chain[-1]:
        raise UsageError(f"{word.render()!r} is not f-smooth; embedding undefined")

    combined = bytes([a]) * b + bytes([b]) * a  # witness for the empty word
    # Walk the chain bottom-up: build the witness for each element from the
    # witness of its derivative.
    for u, d in zip(reversed(chain[:-1]), reversed(chain[1:])):
        # u derives, so its interior is kept and its end runs are <= b; a
        # word of one run reads (0, b"", q), its run first and last
        p, interior, q = _boundary_runs(u, a, b)
        exponents = (combined[: len(combined) - len(d)] + bytes([b] if (p or q) > a else [])
                     + (interior + bytes((q,)) if p else b""))
        # Runs alternate back from u's last letter; only the last exponent
        # may lie strictly between a and b, so that run is spelled apart.
        last = u[-1]
        first = last if len(exponents) % 2 else ab.other(last)
        combined = (_spell(exponents[:-1], first, ab.other(first))
                    + bytes([last]) * exponents[-1])
        if not combined.endswith(u):
            raise ConstructionError(f"embedding step for {Word(ab, u).render()!r} "
                                    "lost the original suffix")

    extension = combined[: len(combined) - len(word.letters)]
    if len(extension) < a + b:
        raise ConstructionError("left extension shorter than a + b")
    if not _is_smooth_bytes(combined, a, b, _R):
        raise ConstructionError("combined word failed the r-smooth check")
    return EmbeddingWitness(left_extension=Word(ab, extension),
                            combined=Word(ab, combined))


def _r_push(stack: list[tuple[int, int]], c: int, a: int,
            b: int) -> Optional[list[tuple[int, int]]]:
    """New last runs of levels 0, 1, ... as far as appending `c` changes
    them, or None when the longer word is not r-smooth.

    `stack[k]` is the last run (letter, exponent) of the k-th iterated right
    derivative of an r-smooth word; empty derivatives are not held.  A last
    run growing to a + 1 appends b one level up, and past b leaves the
    domain; an old last run turning interior appends a if it is a, nothing
    if b, and leaves the domain otherwise.  `stack` is not changed, so a
    failed letter commits nothing.
    """
    runs = []
    for letter, p in stack:
        if letter == c:
            if p == b:
                return None
            runs.append((c, p + 1))
            if p != a:
                return runs
            c = b
        elif p == a or p == b:
            runs.append((c, 1))
            if p == b:
                return runs
            c = a
        else:
            return None
    runs.append((c, 1))
    return runs


def _r_smooth_prefix(letters: bytes, a: int, b: int,
                     stack: list[tuple[int, int]]) -> int:
    """Length of the longest r-smooth prefix of `letters`, in amortised O(1)
    per letter; `stack` starts as that of an r-smooth word (empty for the
    empty word) and ends as that of the prefix (see `_r_push`)."""
    for n, c in enumerate(letters):
        runs = _r_push(stack, c, a, b)
        if runs is None:
            return n
        stack[:len(runs)] = runs
    return len(letters)


def build_smooth_from_r(seed: Word, length: int) -> Word:
    """Extend an r-smooth seed to the requested length, one letter at a time.

    Each step appends the lexicographically smallest letter keeping the word
    r-smooth; extendability of the language guarantees one always exists.
    """
    _check_size("length", length, MAX_PREFIX_LETTERS)
    ab = seed.alphabet
    a, b = ab.a, ab.b
    stack: list[tuple[int, int]] = []
    if _r_smooth_prefix(seed.letters, a, b, stack) < len(seed):
        raise UsageError(f"seed {seed.render()!r} is not r-smooth")
    word = bytearray(seed.letters)
    while len(word) < length:
        runs = _r_push(stack, a, a, b) or _r_push(stack, b, a, b)
        if runs is None:
            raise ConstructionError(f"no r-smooth extension of {bytes(word)!r}; "
                                    "extendability violated")
        stack[:len(runs)] = runs
        word.append(runs[0][0])
    return Word(ab, bytes(word))


def check_smooth_depth(prefix: Word, depth: int) -> bool:
    """Can `prefix` survive `depth` derivation steps as an infinite-word prefix?

    At each step the final run is incomplete evidence: it is dropped unless
    its visible exponent already exceeds b, which is disqualifying on its
    own.  Every completed run must carry an exponent in {a, b}.  Running out
    of letters before `depth` steps counts as failure: the prefix is too
    short to certify that depth.  The walk stops after the empty word or a
    word it cannot derive, so it reaches index `depth` just when all succeed.
    """
    _check_size("depth", depth)
    ab = prefix.alphabet
    words = depth + 1
    walk = _derivatives(prefix.letters, ab.a, ab.b, _PREFIX)
    return sum(1 for _ in islice(walk, words)) == words
