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
with 1, y starting with b, the two streams determine each other; the
generator keeps x far enough ahead that y never starves (checked, not
assumed).
"""

from __future__ import annotations

from typing import Iterator, Optional

from .derivation import _PREFIX, _R, _derive_bytes
from .errors import ConstructionError, _check_size
from .smoothness import _is_smooth_bytes, is_r_smooth
from .words import Alphabet, Word

# Longest prefix either generator builds, at one byte per letter.
MAX_PREFIX_LETTERS = 10_000_000


def _kappa_letters(alphabet: Alphabet, start: int) -> Iterator[int]:
    """Endless letters of the self-reading fixed point starting with `start`."""
    seq = bytearray()
    letter = start
    read = 0
    while True:
        exp = seq[read] if read < len(seq) else letter
        read += 1
        for _ in range(exp):
            seq.append(letter)
            yield letter
        letter = alphabet.other(letter)


def kappa_prefix(alphabet: Alphabet, length: int, start: Optional[int] = None) -> Word:
    """Length-n prefix of the self-reading fixed point.

    `start` defaults to the larger letter, the classical convention.
    """
    _check_size("length", length, MAX_PREFIX_LETTERS)
    if start is None:
        start = alphabet.b
    if start not in (alphabet.a, alphabet.b):
        raise ValueError(f"start letter {start} not in {alphabet}")
    gen = _kappa_letters(alphabet, start)
    return Word(alphabet, bytes(next(gen) for _ in range(length)))


class _CoupledState:
    """Shared buffers for a coupled pair of self-reading words.

    x starts with 1 and reads its exponents off y; y starts with b and reads
    off x.  Runs are primed from the seeds: x opens with 1^b because y's
    first letter is b, and y opens with b^1 because x's first letter is 1.
    """

    def __init__(self, alphabet: Alphabet):
        if alphabet.a != 1 or alphabet.b % 2 == 0 or alphabet.b < 3:
            raise ValueError(
                f"coupled pair needs alphabet {{1, b}} with odd b >= 3, got {alphabet}"
            )
        self.alphabet = alphabet
        b = alphabet.b
        self.x = bytearray([1] * b)
        self.y = bytearray([b])
        self.x_runs = 1  # runs emitted so far, also the next read index
        self.y_runs = 1

    def _emit_y_run(self) -> None:
        j = self.y_runs
        if j >= len(self.x):
            # The seeds keep x ahead of y's read cursor; reaching this line
            # means the invariant broke.
            raise ConstructionError("coupled generator starved: y needs unseen x letters")
        exp = self.x[j]
        letter = self.alphabet.b if j % 2 == 0 else 1
        self.y += bytes([letter]) * exp
        self.y_runs += 1

    def _emit_x_run(self) -> None:
        i = self.x_runs
        while len(self.y) <= i:
            self._emit_y_run()
        exp = self.y[i]
        letter = self.alphabet.b if i % 2 == 1 else 1
        self.x += bytes([letter]) * exp
        self.x_runs += 1

    def ensure(self, n: int) -> None:
        while len(self.x) < n:
            self._emit_x_run()
        while len(self.y) < n:
            self._emit_y_run()


def coupled_pair_prefix(alphabet: Alphabet, length: int) -> tuple[Word, Word]:
    """Length-n prefixes of the coupled pair (x, y) seeded by (1, b)."""
    _check_size("length", length, MAX_PREFIX_LETTERS)
    state = _CoupledState(alphabet)
    state.ensure(length)
    return (
        Word(alphabet, bytes(state.x[:length])),
        Word(alphabet, bytes(state.y[:length])),
    )


def build_smooth_from_r(seed: Word, length: int) -> Word:
    """Extend an r-smooth seed to the requested length, one letter at a time.

    Each step appends the lexicographically smallest letter keeping the word
    r-smooth; extendability of the language guarantees one always exists.
    """
    ab = seed.alphabet
    if not is_r_smooth(seed):
        raise ValueError(f"seed {seed.render()!r} is not r-smooth")
    cur = seed.letters
    while len(cur) < length:
        for c in (ab.a, ab.b):
            cand = cur + bytes([c])
            if _is_smooth_bytes(cand, ab.a, ab.b, _R):
                cur = cand
                break
        else:
            raise ConstructionError(
                f"no r-smooth extension of {cur!r}; extendability violated"
            )
    return Word(ab, cur)


def check_smooth_depth(prefix: Word, depth: int) -> bool:
    """Can `prefix` survive `depth` derivation steps as an infinite-word prefix?

    At each step the final run is incomplete evidence: it is dropped unless
    its visible exponent already exceeds b, which is disqualifying on its
    own.  Every completed run must carry an exponent in {a, b}.  Running out
    of letters before `depth` steps counts as failure: the prefix is too
    short to certify that depth.
    """
    ab = prefix.alphabet
    cur = prefix.letters
    for _ in range(depth):
        if not cur:
            return False
        cur = _derive_bytes(cur, ab.a, ab.b, _PREFIX)
        if cur is None:
            return False
    return True
