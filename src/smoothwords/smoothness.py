"""Membership, enumeration and embedding for smooth word languages.

f-smooth words are those whose iterated two-sided derivative reaches the
empty word; r-smooth words do the same under the right derivative and are
exactly the finite prefixes of infinite smooth words.  Both languages are
factorial and extendable, which the enumerator and the embedding below rely
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .derivation import _F, _R, _derive_bytes
from .errors import ConstructionError, _check_size
from .words import Alphabet, Word, _bytes_runs, _spell

DEFAULT_LENGTH_CAP = 64


@dataclass(frozen=True)
class FSmoothCertificate:
    """Witness of f-smoothness: the full derivative chain down to empty.

    `height` is the number of derivation steps; the chain has height + 1
    entries, only the last of which is empty.
    """

    word: Word
    height: int
    chain: tuple[Word, ...]


@dataclass(frozen=True)
class EmbeddingWitness:
    """A left extension v for u such that v + u is r-smooth."""

    left_extension: Word
    combined: Word


def _is_smooth_bytes(letters: bytes, a: int, b: int, rule) -> bool:
    """True when iterated derivation under `rule` reaches the empty word."""
    while letters:
        letters = _derive_bytes(letters, a, b, rule)
        if letters is None:
            return False
    return True


def is_f_smooth(word: Word) -> Optional[FSmoothCertificate]:
    """Certificate with the full derivative chain, or None if not f-smooth."""
    ab = word.alphabet
    chain = [word.letters]
    cur = word.letters
    while cur:
        cur = _derive_bytes(cur, ab.a, ab.b, _F)
        if cur is None:
            return None
        chain.append(cur)
    words = tuple(Word(ab, c) for c in chain)
    return FSmoothCertificate(word=word, height=len(chain) - 1, chain=words)


def is_r_smooth(word: Word) -> bool:
    """True when iterated right derivation reaches the empty word."""
    return _is_smooth_bytes(word.letters, word.alphabet.a, word.alphabet.b, _R)


# Language levels are cached per alphabet: level n holds the sorted byte
# strings of all f-smooth words of length n.
_LEVEL_CACHE: dict[Alphabet, list[list[bytes]]] = {}


def _language_levels(alphabet: Alphabet, n: int) -> list[list[bytes]]:
    levels = _LEVEL_CACHE.setdefault(alphabet, [[b""]])
    a, b = alphabet.a, alphabet.b
    while len(levels) <= n:
        prev = levels[-1]
        nxt = []
        for w in prev:
            for c in (a, b):
                cand = w + bytes([c])
                if _is_smooth_bytes(cand, a, b, _F):
                    nxt.append(cand)
        levels.append(nxt)
    return levels


def enumerate_f_smooth(alphabet: Alphabet, n: int, *, cap: int = DEFAULT_LENGTH_CAP) -> list[Word]:
    """All f-smooth words of length n, lexicographically ordered.

    Builds up from length n-1 members by single-letter extension, which is
    sound and complete because the language is factorial and extendable.
    """
    _check_size("enumeration length", n, cap, "; pass a larger cap explicitly")
    return [Word(alphabet, w) for w in _language_levels(alphabet, n)[n]]


def f_smooth_count(alphabet: Alphabet, n: int, *, cap: int = DEFAULT_LENGTH_CAP) -> int:
    """Number of f-smooth words of length n (the factor complexity value)."""
    _check_size("enumeration length", n, cap, "; pass a larger cap explicitly")
    return len(_language_levels(alphabet, n)[n])


def left_extensions(word: Word) -> tuple[int, ...]:
    """Letters c with c + word f-smooth, ascending."""
    ab = word.alphabet
    return tuple(
        c for c in (ab.a, ab.b)
        if _is_smooth_bytes(bytes([c]) + word.letters, ab.a, ab.b, _F)
    )


def right_extensions(word: Word) -> tuple[int, ...]:
    """Letters c with word + c f-smooth, ascending."""
    ab = word.alphabet
    return tuple(
        c for c in (ab.a, ab.b)
        if _is_smooth_bytes(word.letters + bytes([c]), ab.a, ab.b, _F)
    )


def embed_left(word: Word) -> EmbeddingWitness:
    """Left extension turning an f-smooth word into an r-smooth one.

    Recursive construction along the derivative chain.  The base case embeds
    the empty word into a^b b^a.  For u with first run exponent p1 and a
    witness v for its derivative (v + derivative r-smooth), the combined word
    is rebuilt from run exponents: the letters of v, then (only if p1 > a)
    one b, then u's exponents from the second run on.  Letters alternate and
    are anchored so the run absorbing u's first run carries u's first letter;
    the result then ends with u itself and right-derives to v + derivative.

    The witness is checked before returning: the extension has length at
    least a + b and the combined word is r-smooth.
    """
    ab = word.alphabet
    cert = is_f_smooth(word)
    if cert is None:
        raise ValueError(f"{word.render()!r} is not f-smooth; embedding undefined")
    a, b = ab.a, ab.b

    combined = bytes([a]) * b + bytes([b]) * a  # witness for the empty word
    # Walk the chain bottom-up: build the witness for each element from the
    # witness of its derivative.
    for u, d in zip(reversed(cert.chain[:-1]), reversed(cert.chain[1:])):
        v_letters = combined[: len(combined) - len(d)]
        runs = _bytes_runs(u.letters)
        first_letter, p1 = runs[0]
        tail = bytes(e for _, e in runs[1:])
        if p1 <= a:
            exponents = v_letters + tail
            anchor = len(v_letters) - 1  # run absorbing u's first run
        else:
            exponents = v_letters + bytes([b]) + tail
            anchor = len(v_letters)
        # the run at index `anchor` carries u's first letter
        first = first_letter if anchor % 2 == 0 else ab.other(first_letter)
        combined = _spell(exponents, first, ab.other(first))
        if not combined.endswith(u.letters):
            raise ConstructionError(
                f"embedding step for {u.render()!r} lost the original suffix"
            )

    extension = combined[: len(combined) - len(word.letters)]
    if len(extension) < a + b:
        raise ConstructionError("left extension shorter than a + b")
    if not _is_smooth_bytes(combined, a, b, _R):
        raise ConstructionError("combined word failed the r-smooth check")
    return EmbeddingWitness(
        left_extension=Word(ab, extension),
        combined=Word(ab, combined),
    )
