"""Growth matrices and exponents for odd alphabets, and exponent formulas.

For alphabets with both letters odd, the parity-count vector of a tree word
obeys an affine recurrence under the primitive constructors.  Its linear
part M (with offset N and letter-swap permutation P) governs the growth of
the minimal level lengths; for a = 1 the system degenerates and a reduced
3 x 3 block R carries the growth instead.

Every matrix entry, (a +- 1) / 2 or (b +- 1) / 2 with both letters odd, is
an integer; eigenvalue extraction runs in floating point via power
iteration and is cross-checked against closed forms: the dominant growth
rate is (1 + sqrt(2b - 1)) / 2 when a = 1, otherwise the dominant root of
X^3 - ((a + b) / 2) X^2 + (b - a)^2 / 4.

Complexity exponents reported here:

    rho  = log(a + b) / log((a + b) / 2)     lower-bound exponent
    alpha = log(a + b) / log((a^2 + b^2) / (a + b))
    beta = log(2 b^2) / log(2 a b / (a + b))  upper-bound exponent
    zeta = log(2 lambda) / log(lambda)        odd alphabets, from lambda

rho_prime = log(2b - 1) / log((a + b) / 2) is kept quarantined: it comes
from a refuted published claim and exceeds rho whenever a < b - 1.

REFERENCE_EXPONENT_TABLE is the published nine-alphabet display of rho,
zeta and beta: `verify` holds the exponents to it, and `exponents
--reference-table` prints them at its precision.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import (
    MAX_GENERATION,
    BoundViolationError,
    NoConvergenceError,
    NotPrimitiveError,
    UsageError,
    _check_size,
)
from .words import Alphabet, Parity, _Record

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_vec(x: Matrix, v: Vector) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in x)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


class GrowthMatrices(_Record):
    """The recurrence data (M, N, P) and, when a = 1, the reduced block R."""

    __slots__ = ("m", "n", "p", "r")


def build_matrices(alphabet: Alphabet) -> GrowthMatrices:
    """Recurrence matrices for an odd alphabet, integers throughout."""
    if alphabet.parity is not Parity.ODD:
        raise UsageError(f"growth matrices need both letters odd, got {alphabet}")
    a, b = alphabet.a, alphabet.b
    dam, dap = (a - 1) // 2, (a + 1) // 2
    dbm, dbp = (b - 1) // 2, (b + 1) // 2
    m = (
        (dam, 0, dbm, 0),
        (dap, 0, dbp, 0),
        (0, dap, 0, dbp),
        (0, dam, 0, dbm),
    )
    n = (dam, dap, dap, dam)
    p = (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    r = None
    if a == 1:
        r = (
            (0, 0, dbm),
            (1, 0, dbp),
            (0, 1, 0),
        )
    return GrowthMatrices(m=m, n=n, p=p, r=r)


def _strictly_positive(x: Matrix) -> bool:
    return all(e > 0 for row in x for e in row)


def _is_primitive(x: Matrix) -> bool:
    power = x
    for _ in range(8):
        if _strictly_positive(power):
            return True
        power = mat_mul(power, x)
    return False


def _power_iteration(entries: Matrix) -> float:
    tol, max_iter = 1e-10, 20000
    rows = [[float(e) for e in row] for row in entries]
    n = len(rows)
    vec = [1.0 / n] * n
    est = 0.0
    stable = 0
    for _ in range(max_iter):
        nxt = [sum(row[k] * vec[k] for k in range(n)) for row in rows]
        norm = sum(abs(x) for x in nxt)
        if norm == 0.0:
            return 0.0
        # vec carries one-norm 1, so the one-norm of A vec estimates the
        # dominant eigenvalue directly.
        prev, est = est, norm
        vec = [x / norm for x in nxt]
        if abs(est - prev) < tol / 10:
            stable += 1
            if stable >= 4:
                return est
        else:
            stable = 0
    raise NoConvergenceError(
        f"power iteration did not stabilise within {max_iter} rounds"
    )


def spectral_radius(matrix: Matrix) -> float:
    """Dominant eigenvalue of a primitive nonnegative matrix.

    Primitivity is checked by looking for a strictly positive power up to
    the eighth; NotPrimitiveError otherwise.
    """
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise UsageError("spectral radius needs a nonempty square matrix")
    if any(e < 0 for row in matrix for e in row):
        raise UsageError("spectral radius here expects a nonnegative matrix")
    if not _is_primitive(matrix):
        raise NotPrimitiveError("matrix has no strictly positive power up to 8")
    return _power_iteration(matrix)


def lambda_of(alphabet: Alphabet) -> float:
    """Dominant growth rate of minimal level lengths, odd alphabets.

    Closed form (1 + sqrt(2b - 1)) / 2 for a = 1; otherwise the dominant
    root q of X^3 - s X^2 + (b - a)^2 / 4 with s = (a + b) / 2.  Since
    q(s - 1) = -(a - 1)(b - 1) < 0 < q(s), bisection on (s - 1, s) finds it,
    and a few Newton steps polish it.
    """
    if alphabet.parity is not Parity.ODD:
        raise UsageError(f"lambda is defined for odd alphabets, got {alphabet}")
    a, b = alphabet.a, alphabet.b
    if a == 1:
        return (1 + math.sqrt(2 * b - 1)) / 2
    s = (a + b) / 2
    d = (b - a) ** 2 / 4

    def q(x: float) -> float:
        return x ** 3 - s * x ** 2 + d

    def dq(x: float) -> float:
        return 3 * x ** 2 - 2 * s * x

    lo, hi = s - 1, s
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if q(mid) > 0:
            hi = mid
        else:
            lo = mid
    x = (lo + hi) / 2
    for _ in range(4):
        slope = dq(x)
        if slope == 0:
            break
        x -= q(x) / slope
    return x


def minimal_length_sequence(alphabet: Alphabet, count: int) -> list[int]:
    """Minimal level lengths l_0..l_count along the all-a primitive path.

    Exact integers from the parity-count recurrence; l_i is the total of the
    state vector after i steps from the zero state.
    """
    _check_size("count", count, MAX_GENERATION)
    mats = build_matrices(alphabet)
    m, n = mats.m, mats.n
    v: Vector = (0,) * 4
    out = [0]
    for _ in range(count):
        v = vec_add(mat_vec(m, v), n)
        out.append(sum(v))
    return out


def lower_bound_constants(alphabet: Alphabet) -> tuple[float, float]:
    """Constants (C, D) with l_i >= C lambda^i - D - 1 on the fitted range.

    C is the dominant-growth scale of the exact sequence (the ratio at the
    last fitted generation); D, the exact maximum of C lambda^i - l_i - 1
    with the floats C and lambda read as rationals, rounded up, absorbs the
    transient.  The bound is checked exactly before returning.
    """
    generations = 14
    lam = lambda_of(alphabet)
    seq = minimal_length_sequence(alphabet, generations)
    c = seq[generations] / lam ** generations
    (cn, cd), (ln, ld) = c.as_integer_ratio(), lam.as_integer_ratio()
    # C lambda^i - l_i - 1 = gaps[i] / den
    den = cd * ld ** generations
    gaps = [cn * ln ** i * ld ** (generations - i) - (l_i + 1) * den
            for i, l_i in enumerate(seq)]
    top = max(0, *gaps)
    d = top / den  # correctly rounded, so at most one step below
    dn, dd = d.as_integer_ratio()
    if dn * den < top * dd:
        d = math.nextafter(d, math.inf)
        dn, dd = d.as_integer_ratio()
    for i, l_i in enumerate(seq):
        if gaps[i] * dd > dn * den:
            raise BoundViolationError(
                f"fitted bound fails at generation {i}: {l_i} < "
                f"{c * lam ** i - d - 1}"
            )
    return c, d


def max_length_growth_radius(alphabet: Alphabet) -> float:
    """Dominant eigenvalue of M P M, reported raw.

    Governs maximal level lengths over two-generation steps.  The product is
    reducible for a = 1, so the estimate skips the primitivity gate: from a
    positive start vector power iteration still converges to the largest
    block's growth rate.
    """
    mats = build_matrices(alphabet)
    return _power_iteration(mat_mul(mat_mul(mats.m, mats.p), mats.m))


# -- exponents ------------------------------------------------------------


class ExponentReport(_Record):
    """Growth exponents of one alphabet with the formula behind each field."""

    __slots__ = ("alphabet", "rho", "alpha", "beta", "zeta", "growth_lambda", "rho_prime",
                 "c_constant", "formulas")


_FORMULAS = {
    "rho": "log(a+b) / log((a+b)/2)",
    "alpha": "log(a+b) / log((a*a+b*b)/(a+b))",
    "beta": "log(2*b*b) / log(2*a*b/(a+b))",
    "zeta": "log(2*lambda) / log(lambda)",
    "growth_lambda": "(1+sqrt(2b-1))/2 if a=1 else dominant root of "
                     "X^3 - ((a+b)/2) X^2 + (b-a)^2/4",
    "rho_prime": "log(2b-1) / log((a+b)/2)  [quarantined: from a refuted claim]",
    "c_constant": "4a / (a+b-2)",
}


# nine-column growth-exponent table: displayed strings per alphabet
REFERENCE_EXPONENT_TABLE = {
    (1, 3): {"rho": "2", "zeta": "2.44", "beta": "7.129"},
    (1, 5): {"rho": "1.63", "zeta": "2", "beta": "7.658"},
    (3, 5): {"rho": "1.5", "zeta": "1.51", "beta": "2.96"},
    (1, 7): {"rho": "1.5", "zeta": "1.831", "beta": "8.193"},
    (3, 7): {"rho": "1.431", "zeta": "1.44", "beta": "3.195"},
    (5, 7): {"rho": "1.387", "zeta": "1.388", "beta": "2.6"},
    (1, 9): {"rho": "1.431", "zeta": "1.74", "beta": "8.565"},
    (3, 9): {"rho": "1.387", "zeta": "1.397", "beta": "3.383"},
    (5, 9): {"rho": "1.356", "zeta": "1.358", "beta": "2.734"},
}


def _display_decimals(display: str) -> int:
    """Decimal places of a reference display such as "2.44"."""
    return len(display.split(".")[1]) if "." in display else 0


def exponent_report(alphabet: Alphabet) -> ExponentReport:
    """All growth exponents for one alphabet; zeta only when both letters
    are odd."""
    a, b = alphabet.a, alphabet.b
    rho = math.log(a + b) / math.log((a + b) / 2)
    alpha = math.log(a + b) / math.log((a * a + b * b) / (a + b))
    beta = math.log(2 * b * b) / math.log(2 * a * b / (a + b))
    lam: Optional[float] = None
    zeta: Optional[float] = None
    if alphabet.parity is Parity.ODD:
        lam = lambda_of(alphabet)
        zeta = math.log(2 * lam) / math.log(lam)
    rho_prime = math.log(2 * b - 1) / math.log((a + b) / 2)
    c_constant = 4 * a / (a + b - 2)
    return ExponentReport(
        alphabet=alphabet,
        rho=rho,
        alpha=alpha,
        beta=beta,
        zeta=zeta,
        growth_lambda=lam,
        rho_prime=rho_prime,
        c_constant=c_constant,
        formulas=dict(_FORMULAS),
    )
