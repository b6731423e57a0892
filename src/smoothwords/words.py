"""Core value types: alphabets, finite words, run factorizations, parity counts.

Words live over a two-letter alphabet {a, b} of positive integers with a < b.
Letters are stored as raw byte values, which keeps equality, ordering, slicing
and letter counting at C speed; everything layered on top stays immutable.

`Alphabet`, `Word` and `RunFactorization`, and the records of the other
modules, are slotted classes on one base, `_Record`, and use its methods: a
record is built from its fields by position or keyword, equals only a record
of its own class with equal fields, hashes, pickles and prints as the tuple
of its fields does, and refuses assignment and deletion.  Only this module
writes record fields: `Alphabet` checks its letters before the base's one
constructor runs, and `Word`, the hottest record, checks its letters and
writes its two fields itself.  `_word` writes them with no check, for
letters the program already knows lie in the alphabet.  The methods are
written out, not generated when the module loads, so no CLI process imports
`inspect` for them.
"""

from __future__ import annotations

import enum
from functools import cache, lru_cache
from itertools import cycle, repeat
from operator import add
from typing import Iterable, NamedTuple, Optional, Union

from .errors import UsageError


class Parity(enum.Enum):
    """Parity class of an alphabet: both letters even, both odd, or mixed."""

    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


class _Record:
    """An immutable record whose fields are its class's `__slots__`, in order.

    Built by position, then by keyword; a missing, extra, unknown or repeated
    field raises `TypeError`, and a subclass with checks passes its fields
    on to `__init__`.  Equal only to a record of the same class
    with equal fields; hashes and prints as the tuple of its fields does,
    `Name(field=value, ...)`; assignment and deletion raise `AttributeError`.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named or len(values) != len(names):
            rest = names[len(values):]
            if len(values) > len(names) or named.keys() != set(rest):
                raise TypeError(f"{self.__class__.__qualname__}() takes the fields {names}, "
                                f"got {len(values)} by position and {sorted(named)} by keyword")
            values += tuple([named[name] for name in rest])
        set_field = object.__setattr__
        for name, value in zip(names, values):
            set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class Alphabet(_Record):
    """Ordered two-letter integer alphabet {a, b} with 1 <= a < b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if not (isinstance(a, int) and isinstance(b, int)) or bool in (type(a), type(b)):
            raise UsageError("alphabet letters must be integers")
        if not 1 <= a < b <= 255:
            raise UsageError(f"need 1 <= a < b <= 255, got a={a}, b={b}")
        super().__init__(a, b)

    @property
    def parity(self) -> Parity:
        if self.a % 2 == 0 and self.b % 2 == 0:
            return Parity.EVEN
        if self.a % 2 == 1 and self.b % 2 == 1:
            return Parity.ODD
        return Parity.MIXED

    def other(self, letter: int) -> int:
        """The complementary letter."""
        if letter == self.a:
            return self.b
        if letter == self.b:
            return self.a
        raise UsageError(f"letter {letter} not in alphabet {self}")

    def word(self, letters: Union[str, bytes, Iterable[int]] = b"") -> "Word":
        """Build a word; accepts rendered text, bytes, or an iterable of letters."""
        if isinstance(letters, str):
            return _word(self, _parse_text(self, letters))  # letters checked there
        if isinstance(letters, Word):
            letters = letters.letters
        elif not isinstance(letters, bytes):
            if not isinstance(letters, (list, tuple)):
                letters = list(letters)  # read an iterator once, to name a bad letter
            if bool in map(type, letters):  # bytes() would read True as 1
                bad = next(x for x in letters if type(x) is bool)
                raise UsageError(f"letter {bad!r} not in alphabet {self}")
        try:
            letters = bytes(letters)
        except (TypeError, ValueError):
            bad = next(x for x in letters if not (isinstance(x, int) and 0 <= x <= 255))
            raise UsageError(f"letter {bad!r} not in alphabet {self}") from None
        return Word(self, letters)

    def empty(self) -> "Word":
        return Word(self, b"")

    def __str__(self) -> str:
        return f"{{{self.a},{self.b}}}"


@cache
def _swap_table(a: int, b: int) -> bytes:
    """Translation table exchanging the letters a and b, one per alphabet."""
    return bytes.maketrans(bytes((a, b)), bytes((b, a)))


# Takes each ASCII digit to its value and every other byte to 0, never a letter.
_DIGITS = bytes(48) + bytes(range(10)) + bytes(198)
# The mirror of _DIGITS: takes each value below 10 to its ASCII digit.
_ASCII = b"0123456789" + bytes(246)
_DECIMAL = tuple(map(str, range(256)))  # each letter's text, made once


# The ASCII whitespace a word's text may carry around it; `str.strip()`
# would also take Unicode spaces, which no integer flag accepts.
_SPACES = " \t\n\r\x0b\x0c"


def _parse_text(alphabet: Alphabet, text: str) -> bytes:
    text = text.strip(_SPACES)
    if not text:
        return b""
    if "," in text:
        parts = text.split(",")
    elif alphabet.b < 10:
        if text.isascii():
            letters = text.encode().translate(_DIGITS)
            if not letters.translate(None, bytes((alphabet.a, alphabet.b))):
                return letters
        parts = list(text)
    else:
        # Single token without commas: a lone letter like "12" is ambiguous
        # unless it parses as one letter of the alphabet.
        parts = [text]
    letters = []
    for part in parts:
        if not (part.isascii() and part.isdigit()):  # int() reads more
            raise UsageError(f"letter {part!r} is not an integer")
        letters.append(int(part))
    bad = next((x for x in letters if x != alphabet.a and x != alphabet.b), None)
    if bad is not None:
        raise UsageError(f"letter {bad} not in alphabet {alphabet}")
    return bytes(letters)


class Run(NamedTuple):
    """One maximal block: `exponent` copies of `letter`."""

    letter: int
    exponent: int


class RunFactorization(_Record):
    """Canonical factorization of a word into maximal single-letter runs.

    Adjacent runs carry distinct letters and every exponent is positive;
    the factorized length is the number of runs.
    """

    __slots__ = ("runs",)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def __getitem__(self, i):
        return self.runs[i]

    def exponents(self) -> tuple[int, ...]:
        return tuple(r.exponent for r in self.runs)

    def reconstruct(self, alphabet: Alphabet) -> "Word":
        return Word(alphabet, b"".join(bytes([x]) * e for x, e in self.runs))


def _marks(letters: bytes) -> bytes:
    """The run boundaries of a word over {a, b}: one big-int XOR of the word
    with itself shifted by one letter.  The first byte is the first letter;
    past it the byte a^b, never 0 nor a letter, stands where a run starts,
    and 0 elsewhere, so each later run of exponent e reads a^b 0^(e-1)."""
    word = int.from_bytes(letters, "big")
    return (word ^ (word >> 8)).to_bytes(len(letters), "big")


@cache
def _boundary_tokens(a: int, b: int) -> tuple[int, bytes, bytes, bytes, bytes, bytes]:
    """`_read_runs`' and `_stray_run`'s tables for one alphabet (six objects
    of at most 255 bytes an alphabet): the mark a^b, the marked runs of b
    and of a letters, each followed by the letter that spells its exponent,
    and the pair."""
    mark = a ^ b
    return (mark, bytes((mark,)) + bytes(b - 1), bytes((b,)),
            bytes((mark,)) + bytes(a - 1), bytes((a,)), bytes((a, b)))


_SHORT = 32
_MEMO = 1024


def _boundary_runs(letters: bytes, a: int, b: int) -> Optional[tuple[int, bytes, int]]:
    """(first, interior, last): the exponents of the first and the last run
    of a word over {a, b}, and its interior exponents spelled as letters, or
    None when an interior exponent is neither a nor b.  A word of one run
    c^n gives (0, b"", n), and the empty word (0, b"", 0).

    A word of at most `_SHORT` (32) letters is answered by `_short_runs`, a
    memo of the last `_MEMO` (1,024) such words asked about, keyed by
    (letters, a, b); a longer word is read afresh by `_read_runs`, which the
    memo calls too.  The derivatives of an f- or r-smooth word are f-smooth,
    and short f-smooth words are few (7,575 of at most 32 letters over
    {1,2}), so every derivation chain ends among the same short words; and
    on them the int conversions of `_read_runs` cost the most per letter.
    The answers are immutable, and the full memo holds about 0.3 MB.
    """
    if len(letters) <= _SHORT:
        return _short_runs(letters, a, b)
    return _read_runs(letters, a, b)


def _read_runs(letters: bytes, a: int, b: int) -> Optional[tuple[int, bytes, int]]:
    """`_boundary_runs` worked out from the word's `_marks`, with no object
    made per run.

    The first and last marks give the end exponents.  Between them each
    interior run of exponent e reads a^b 0^(e-1); two `replace` calls write
    the runs of b, the longer, then those of a as their letters, and a run
    of any other length, 256 or more included, leaves a 0 or a mark behind.
    """
    marked = _marks(letters)
    mark, run_b, letter_b, run_a, letter_a, pair = _boundary_tokens(a, b)
    first = marked.find(mark)
    if first < 0:
        return 0, b"", len(letters)
    last = marked.rfind(mark)
    interior = marked[first:last].replace(run_b, letter_b).replace(run_a, letter_a)
    if interior.translate(None, pair):
        return None
    return first, interior, len(letters) - last


_short_runs = lru_cache(maxsize=_MEMO)(_read_runs)


def _stray_run(letters: bytes, a: int, b: int) -> tuple[int, int, int]:
    """(first, i, e) for a word whose interior `_read_runs` refuses: the
    first exponent, and the index i and exponent e of the first run past the
    first that is neither a nor b.

    The `_marks` from the second run on are read as `_read_runs` reads the
    interior.  The first byte past the runs read as letters is a mark, which
    starts a run shorter than a, or a 0 after the letter that read the start
    of a longer run.
    """
    marked = _marks(letters)
    mark, run_b, letter_b, run_a, letter_a, pair = _boundary_tokens(a, b)
    first = marked.find(mark)
    read = marked[first:].replace(run_b, letter_b).replace(run_a, letter_a)
    rest = read.lstrip(pair)
    i = len(read) - len(rest)  # runs 1 to i read as letters
    if rest[0] == mark:
        i, e, rest = i + 1, 1, rest[1:]
    else:
        e = read[i - 1]
    return first, i, e + len(rest) - len(rest.lstrip(b"\0"))


@cache
def _spell_tables(first: int, second: int) -> tuple:
    """`_spell`'s tables for one letter pair: the pair, the translations of
    even- and odd-index exponents to four marker bytes outside the pair, and
    each marker with the run it stands for."""
    pair = bytes((first, second))
    marks = bytes(x for x in range(6) if x not in pair)[:4]
    runs = [bytes([x]) * e for x in pair for e in pair]
    return (pair, bytes.maketrans(pair, marks[:2]), bytes.maketrans(pair, marks[2:]),
            tuple(zip((marks[i:i + 1] for i in range(4)), runs)))


def _spell(exponents: bytes, first: int, second: int) -> bytes:
    """Runs first^e0 second^e1 first^e2 ... for exponents e0, e1, e2, ...
    drawn from {first, second}.

    The inverse of `Word.runs` on alternating letters, at C speed: two
    `translate` calls mark each exponent with one of four bytes that are not
    letters, by its value and its index's parity, and one `replace` per
    marker writes its run.
    """
    pair, even, odd, runs = _spell_tables(first, second)
    if exponents.translate(None, pair):
        raise ValueError(f"exponents to spell must be {first} or {second}")
    marked = bytearray(exponents.translate(even))
    marked[1::2] = exponents[1::2].translate(odd)
    spelled = bytes(marked)
    for mark, run in runs:
        spelled = spelled.replace(mark, run)
    return spelled


class ParityCountVector(NamedTuple):
    """Letter counts split by 1-based position parity.

    `a_odd` counts the smaller letter at positions 1, 3, 5, ... and `a_even`
    at positions 2, 4, 6, ...; same for the larger letter.  Matrix recurrences
    use the fixed component order (a_even, a_odd, b_even, b_odd).
    """

    a_even: int
    a_odd: int
    b_even: int
    b_odd: int

    @property
    def total(self) -> int:
        return sum(self)


class Word(_Record):
    """An immutable finite word over a two-letter integer alphabet."""

    __slots__ = ("alphabet", "letters")

    # The hottest constructor: it checks the letters and writes both fields itself.
    def __init__(self, alphabet: Alphabet, letters: bytes):
        if type(letters) is not bytes:
            raise UsageError(
                f"word letters must be bytes, got {type(letters).__name__}")
        rest = letters.translate(None, bytes([alphabet.a, alphabet.b]))
        if rest:
            raise UsageError(f"letter {rest[0]} not in alphabet {alphabet}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)

    # -- basic sequence behaviour ------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, item) -> "Word | int":
        if isinstance(item, slice):
            return Word(self.alphabet, self.letters[item])
        return self.letters[item]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise UsageError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters < other.letters

    def __le__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters <= other.letters

    def count(self, letter: int) -> int:
        return self.letters.count(letter)

    def is_prefix_of(self, other: "Word") -> bool:
        return other.letters.startswith(self.letters)

    # -- structure ----------------------------------------------------

    @property
    def runs(self) -> RunFactorization:
        """Canonical run factorization, read off the word's `_marks`: past
        the first letter, each run of exponent e reads a^b 0^(e-1), so a
        split at a^b leaves e - 1 bytes of each run (over {1,2} only empty
        and one-byte pieces, which Python does not allocate anew)."""
        if not self.letters:
            return RunFactorization(())
        ab = self.alphabet
        first = self.letters[0]
        mark = bytes((ab.a ^ ab.b,))
        exponents = map(add, map(len, _marks(self.letters)[1:].split(mark)), repeat(1))
        pairs = zip(cycle((first, ab.other(first))), exponents)
        # tuple.__new__ builds each Run in C, with no call of Run's own __new__
        return RunFactorization(tuple(map(tuple.__new__, repeat(Run), pairs)))

    def complement(self) -> "Word":
        """Swap the two letters everywhere."""
        ab = self.alphabet
        return Word(ab, self.letters.translate(_swap_table(ab.a, ab.b)))

    def reversal(self) -> "Word":
        return Word(self.alphabet, self.letters[::-1])

    def parity_counts(self) -> ParityCountVector:
        """Letter counts split by 1-based position parity."""
        odd = self.letters[0::2]
        even = self.letters[1::2]
        return ParityCountVector(
            a_even=even.count(self.alphabet.a),
            a_odd=odd.count(self.alphabet.a),
            b_even=even.count(self.alphabet.b),
            b_odd=odd.count(self.alphabet.b),
        )

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text form: digit string when both letters are below 10,
        comma-separated otherwise."""
        if self.alphabet.b < 10:
            return self.letters.translate(_ASCII).decode("ascii")
        return ",".join([_DECIMAL[x] for x in self.letters])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Word({self.alphabet}, '{self.render()}')"


def _word(alphabet: Alphabet, letters: bytes) -> Word:
    """A `Word` of letters the program already knows lie in the alphabet,
    such as a derivative or parsed text: both fields written with no check."""
    word = object.__new__(Word)
    object.__setattr__(word, "alphabet", alphabet)
    object.__setattr__(word, "letters", letters)
    return word
