"""Derivation operators on run factorizations.

A word u = c1^p1 c2^p2 ... cn^pn (canonical runs) is derivable when its run
exponents obey a rule; the derivative is the word spelled by the exponents.
A rule says how the first and the last run are handled.  A run handled by
no cut is interior: its exponent must lie in {a, b} and is spelled as that
letter.  A cut takes an exponent in [1, b] to the empty word or the letter b:

    cut(p)        = empty if p <= a,  letter b if a < p <= b
    strict cut(p) = empty if p < b,   letter b if p = b
    drop(p)       = empty

    rule         first run    last run    iterates ending in the empty word
    two-sided    cut          cut         f-smooth words (factors)
    Huang        strict cut   strict cut  (Huang's variant, see below)
    right        interior     cut         r-smooth words (prefixes)
    prefix       interior     drop        (used by `check_smooth_depth`)

A single-run word is handled by the last-run side alone, and the empty word
maps to itself.  Huang's variant agrees with the two-sided derivative exactly
when a = b - 1 and is kept quarantined here because published claims relying
on it break otherwise.  The prefix rule treats the final run as possibly
unfinished: it only has to fit in [1, b] and is dropped.

Every rule contracts the length of any nonempty word, so iteration terminates.
Every iteration of one word (r-smooth membership, the left embedding, the
depth check, the CLI's chain and the tail of a certificate or root after the
extension walk) reads the one walk `_derivatives`.  The one incremental
exception is the stack of right derivatives in `generators` (`_r_push`),
which decides every prefix of a growing word in amortised O(1) per letter
for the greedy extension and the every-prefix check of `verify`.

Every probe of one word w (f-smoothness and its chain, the one-letter
extensions, the bispecial probes) reads one extension walk, `_extensions`,
which derives w once for all nine x·w·y with x, y in the contexts (none, a,
b).  While w has at least two runs, x·w·y differs from w only in its first
and last runs, so it derives to x' + D + y': D spells the interior exponents
of w, shared by all nine, and x' (likewise y') is empty, one letter or
outside the domain, depending only on x and the first run of w.  Each level
of that shared-middle walk reads the runs of one word, as a step does
(below).  The walk records w's own derivative at each level and stops at a
middle of at most one run.  The words x' + middle + y' left there have at
most three runs, and `_ends_smooth` decides them from their exponents
without deriving them: the walk's one-sided answers for a·w, b·w, w·a and
w·b, and the two-sided cells of `bispecial.multiplicity`.  The walk of the
last word asked about is kept, so the probes of one word walk it once
between them.

One step reads a word's runs from `words._boundary_runs`: its first and
last exponents as integers and its interior exponents spelled as letters,
with no object made per run.  A word of at most 32 letters is answered
from one memo there, of the last 1,024 such words asked about: every chain
of an f- or r-smooth word ends among the few short f-smooth words, and on
short words reading the runs costs the most per letter.  Longer words are
read afresh.  An interior run that is neither a nor b long
is refused there, 256 letters or more included; an end run longer than b,
255 at most, is outside the domain of every rule.  The boundary marks assume
the letters lie in {a, b}; every caller passes a word of the alphabet.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from typing import Iterator, Optional

from .errors import NotDerivableError, NotRDerivableError, UsageError
from .words import Word, _boundary_runs, _Record, _stray_run, _word


class DerivabilityReport(_Record):
    """Outcome of a domain check, pointing at the first offending run."""

    __slots__ = ("derivable", "offending_run_index", "offending_exponent", "reason")


_OK = DerivabilityReport(True, None, None, None)


_LETTER = tuple(bytes((c,)) for c in range(256))  # each letter's byte, made once


def _cut(p: int, a: int, b: int) -> bytes:
    return b"" if p <= a else _LETTER[b]


def _cut_strict(p: int, a: int, b: int) -> bytes:
    return _LETTER[b] if p == b else b""


def _drop(p: int, a: int, b: int) -> bytes:
    return b""


# Rules as (first-run handling, last-run handling); None marks an interior run.
_F = (_cut, _cut)
_HUANG = (_cut_strict, _cut_strict)
_R = (None, _cut)
_PREFIX = (None, _drop)

_RULES = {"f": _F, "r": _R, "huang": _HUANG}


def _derive_bytes(letters: bytes, a: int, b: int, rule) -> Optional[bytes]:
    """One derivation step on raw letters over {a, b} under `rule`; None off
    the domain."""
    runs = _boundary_runs(letters, a, b)
    if runs is None:
        return None
    p, interior, q = runs
    first, last = rule
    if q > b:
        return None
    if first is not None:
        return None if p > b else first(p, a, b) + interior + last(q, a, b)
    if p:  # the first run is not the last, so it is interior
        if p != a and p != b:
            return None
        interior = _LETTER[p] + interior
    return interior + last(q, a, b)


def _derivatives(letters: bytes, a: int, b: int, rule) -> Iterator[bytes]:
    """`letters`, then each derivative under `rule` in turn.

    Stops after the empty word, or after the first word outside the rule's
    domain, which comes last: the walk ends in the empty word exactly when
    iterated derivation reaches it.
    """
    yield letters
    while letters:
        letters = _derive_bytes(letters, a, b, rule)
        if letters is None:
            return
        yield letters


def _is_smooth_bytes(letters: bytes, a: int, b: int, rule) -> bool:
    """True when iterated derivation under `rule` reaches the empty word."""
    for last in _derivatives(letters, a, b, rule):
        pass
    return not last


def _edge(contexts: tuple, c: int, p: int, a: int, b: int) -> tuple:
    """The contexts of one side one level down, where the word's run on that
    side is c^p with p <= b.  Beside the empty context that run is the
    boundary; the context c lengthens it by one; the other letter is a run
    of one, cut to the empty word, which makes c^p interior."""
    letter = _LETTER[b]
    boundary = b"" if p <= a else letter
    longer = None if p == b else b"" if p < a else letter
    interior = _LETTER[p] if p == a or p == b else None
    c = _LETTER[c]
    x, y, z = contexts  # None, outside the domain, stays None
    return (boundary if x == b"" else longer if x == c else x and interior,
            boundary if y == b"" else longer if y == c else y and interior,
            boundary if z == b"" else longer if z == c else z and interior)


def _ends_smooth(x: Optional[bytes], middle: bytes, y: Optional[bytes],
                 a: int, b: int) -> bool:
    """Whether x + middle + y is f-smooth, for x and y empty, one letter or
    None (outside the domain) and a middle of at most one run, read off its
    runs.

    The word is a run c^p, c the first letter of the middle (or of the
    contexts, around an empty middle), and a run of one on each side whose
    context is the other letter d.  One or two runs in [1, b] derive to at
    most two letters b, which derive to the empty word.  In three runs,
    d c^p d, c^p is interior: p must be a or b, and the word derives to p.
    """
    if x is None or y is None:
        return False
    c = middle[:1] or x or y
    if not c:
        return True
    p = len(middle) + (x == c) + (y == c)
    if x and y and x != c != y:
        return p == a or p == b
    return p <= b


@lru_cache(maxsize=1)
def _extensions(letters: bytes, a: int, b: int) -> Optional[tuple]:
    """Derive w and all nine x·w·y at once, x and y in the contexts (none, a,
    b), through the middle they share (see the module docstring).

    Returns (levels, (left, middle, right), one_sided): `levels` holds w and
    its derivatives through the shared levels, after which x·w·y has derived
    to left[x] + middle + right[y], with a middle of at most one run and each
    context empty, one letter, or None once outside the domain, which the
    empty context never is; `one_sided` tells whether a·w, b·w, w·a and w·b
    are f-smooth, read off the runs of the words left at the end.  Returns
    None as soon as w is seen not to be f-smooth: an interior exponent
    outside {a, b} or a first or last run longer than b rules out all nine,
    and so do both one-letter contexts of one side, as the language is
    extendable.  Each level reads the runs of its word once, through
    `words._boundary_runs`, and works out the contexts one level down with
    `_edge`.
    """
    left = right = (b"", _LETTER[a], _LETTER[b])
    levels = []
    while True:
        runs = _boundary_runs(letters, a, b)
        if runs is None:
            return None
        p, middle, q = runs
        if not p:  # at most one run
            break
        if p > b or q > b:
            return None
        levels.append(left[0] + letters + right[0])
        left = _edge(left, letters[0], p, a, b)
        right = _edge(right, letters[-1], q, a, b)
        if left[1:] == (None, None) or right[1:] == (None, None):
            return None
        letters = middle
    (x, xa, xb), (y, ya, yb) = left, right
    return tuple(levels), (left, letters, right), (
        _ends_smooth(xa, letters, y, a, b), _ends_smooth(xb, letters, y, a, b),
        _ends_smooth(x, letters, ya, a, b), _ends_smooth(x, letters, yb, a, b))


class FSmoothCertificate(_Record):
    """Witness of f-smoothness: the full derivative chain down to empty.

    `height` is the number of derivation steps; the chain has height + 1
    entries, only the last of which is empty.
    """

    __slots__ = ("word", "height", "chain")


def is_f_smooth(word: Word) -> Optional[FSmoothCertificate]:
    """Certificate with the full derivative chain, or None if not f-smooth."""
    ab = word.alphabet
    walk = _extensions(word.letters, ab.a, ab.b)
    if walk is None:
        return None
    levels, (left, middle, right), _ = walk
    chain = [*levels, *_derivatives(left[0] + middle + right[0], ab.a, ab.b, _F)]
    if chain[-1]:
        return None
    words = tuple(map(_word, repeat(ab), chain))  # letters the walk derived
    return FSmoothCertificate(word=word, height=len(chain) - 1, chain=words)


def is_r_smooth(word: Word) -> bool:
    """True when iterated right derivation reaches the empty word."""
    return _is_smooth_bytes(word.letters, word.alphabet.a, word.alphabet.b, _R)


def left_extensions(word: Word) -> tuple[int, ...]:
    """Letters c with c + word f-smooth, ascending."""
    a, b = word.alphabet.a, word.alphabet.b
    walk = _extensions(word.letters, a, b)
    return () if walk is None else tuple(compress((a, b), walk[2][:2]))


def right_extensions(word: Word) -> tuple[int, ...]:
    """Letters c with word + c f-smooth, ascending."""
    a, b = word.alphabet.a, word.alphabet.b
    walk = _extensions(word.letters, a, b)
    return () if walk is None else tuple(compress((a, b), walk[2][2:]))


def derivability(word: Word, kind: str = "f") -> DerivabilityReport:
    """Domain check without deriving; kind is 'f', 'r', or 'huang'.

    Names the first run outside the domain, read off `_boundary_runs`, or
    off `_stray_run` when an interior run fails: a first run that a
    two-sided rule cuts must be at most b, and one that the right rule keeps
    must be a or b; then every interior run must be a or b, and the last run
    at most b.
    """
    if kind not in _RULES:
        raise UsageError(f"unknown derivation kind {kind!r}")
    two_sided = _RULES[kind][0] is not None
    edge, inner = (("boundary exponent outside [1,b]", "interior exponent not a letter")
                   if two_sided else
                   ("final exponent outside [1,b]", "non-final exponent not a letter"))
    a, b = word.alphabet.a, word.alphabet.b
    runs = _boundary_runs(word.letters, a, b)
    if runs is None:
        p, i, e = _stray_run(word.letters, a, b)
    else:
        p, interior, q = runs
    if p and (p > b if two_sided else p != a and p != b):
        return DerivabilityReport(False, 0, p, edge if two_sided else inner)
    if runs is None:
        return DerivabilityReport(False, i, e, inner)
    if q <= b:
        return _OK
    return DerivabilityReport(False, len(interior) + bool(p), q, edge)


def _derive(word: Word, kind: str, error: type, name: str) -> Word:
    ab = word.alphabet
    d = _derive_bytes(word.letters, ab.a, ab.b, _RULES[kind])
    if d is None:
        report = derivability(word, kind)
        raise error(
            f"word {word.render()!r} has no {name}: {report.reason} "
            f"(run {report.offending_run_index}, exponent {report.offending_exponent})",
            report,
        )
    return Word(ab, d)


def derive_f(word: Word) -> Word:
    """Two-sided derivative; raises NotDerivableError outside the domain."""
    return _derive(word, "f", NotDerivableError, "two-sided derivative")


def derive_r(word: Word) -> Word:
    """Right derivative; raises NotRDerivableError outside the domain."""
    return _derive(word, "r", NotRDerivableError, "right derivative")


def derive_huang(word: Word) -> Word:
    """Huang's two-sided variant; same domain, stricter boundary cut.

    Kept separate so the divergence from `derive_f` on alphabets with
    a < b - 1 stays observable instead of silently absorbed.
    """
    return _derive(word, "huang", NotDerivableError, "derivative under the strict cut")


def derivative_chain(word: Word, op=derive_f) -> list[Word]:
    """Iterate an operator until the empty word or a domain error.

    Returns the chain starting at `word`; stops after the empty word.  A
    domain error mid-chain propagates to the caller.
    """
    chain = [word]
    while chain[-1]:
        chain.append(op(chain[-1]))
    return chain
