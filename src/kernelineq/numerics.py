"""Extended-real arithmetic and exponent bookkeeping.

All constants and norms produced by this package live on the nonnegative
extended real line [0, +inf].  The conventions fixed here (0*inf = 0,
0^r for r < 0 equal to +inf, and so on) are used by every other module.
A power of an extended real (a weight, a kernel entry or anything built
from them) is taken with `ext_pow` or, for a whole vector, `pows`.  The
raw `**` left elsewhere raises a constant base (2, 10 or a covering
ratio) to a search-grid or level exponent, or sits in the bridge's cell
integrals, which map an `OverflowError` to inf themselves.

The vector helpers are the fast path of the scalar rules, bit for bit:
`pow_for(r)` is `ext_pow(., r)` per entry with its rule for r picked
once (`pows` picks it per call), `mul_for` picks `operator.mul` where every
factor is finite and `ext_mul` otherwise (on finite factors the two
differ only in the sign of a zero product), and `sup0` is a running max
from +0.0.  An extended-real sum is builtin `sum(xs, 0.0)`: no term is
negative or NaN, so an inf term makes it inf and inf - inf never arises.
On CPython 3.11 `sum` adds floats left to right; CPython 3.12 compensates
the rounding, which would change the last bits of every sum and split
the oracle's batched evaluation, which folds its sums explicitly, from
the per-candidate one.  `pyproject.toml` asks for Python < 3.12, and
`tests/test_numerics.py` checks `sum` itself.

These are the only copies of the rules.  `mul_for` costs one C-level
scan and one Python frame, and `ext_pow` of a positive finite float to a
finite power (the root of such a sum) one comparison and one frame, so
an evaluator that runs them once per derived vector of a candidate makes
no Python call per entry and no `ext` validation where every value is
positive and finite.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

INF = math.inf


def ext(x: float) -> float:
    """Validate a nonnegative extended real.  NaN and negatives are rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a number: {x!r}")
    x = float(x)
    if math.isnan(x):
        raise ValueError("NaN is not a valid extended real")
    if x < 0:
        raise ValueError(f"negative value not allowed: {x}")
    return x


def finite_floats(xs: Sequence) -> Optional[tuple]:
    """xs as a tuple of floats where `ext` takes every entry to a finite
    float: each is an int or a float (not a bool) that converts, is finite
    and is not negative; None where one is not.  It checks the whole
    sequence in C-level passes, so a caller validates entry by entry only
    to raise the first bad entry's error."""
    if not set(map(type, xs)) <= {int, float}:
        return None
    try:
        fs = tuple(map(float, xs))
    except OverflowError:
        return None
    return fs if finite(fs) and min(fs, default=0.0) >= 0 else None


def ext_mul(x: float, y: float) -> float:
    """Product with the convention 0 * inf = 0."""
    if x == 0.0 or y == 0.0:
        return 0.0
    return x * y


def ext_pow(x: float, r: float) -> float:
    """x**r on [0, inf] with fixed conventions.

    0^r = 0 for r > 0, +inf for r < 0, 1 for r = 0.
    inf^r = +inf for r > 0, 0 for r < 0, 1 for r = 0.
    Finite positive x uses the ordinary power (inf on an overflow); a
    finite power of a positive finite float takes it first, unvalidated.
    """
    if type(x) is float and 0.0 < x < INF and -INF < r < INF:
        try:
            return x ** r
        except OverflowError:
            return INF
    x = ext(x)
    if math.isnan(r):
        raise ValueError("NaN exponent")
    if r == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0 if r > 0 else INF
    if math.isinf(x):
        return INF if r > 0 else 0.0
    if math.isinf(r):
        # x^inf on finite positive x: standard limit conventions.
        if x > 1.0:
            return INF if r > 0 else 0.0
        if x < 1.0:
            return 0.0 if r > 0 else INF
        return 1.0
    try:
        return x ** r
    except OverflowError:
        return INF


def finite(*seqs: Iterable[float]) -> bool:
    """Whether every entry of these sequences is finite."""
    return all(map(math.isfinite, itertools.chain(*seqs)))


def mul_for(*seqs: Iterable[float], rest_finite: bool = True
            ) -> Callable[[float, float], float]:
    """operator.mul if rest_finite holds and every entry of seqs is finite,
    else ext_mul.

    A reduction over the products starts from or keeps +0.0, so the sign
    of a zero product never shows.  rest_finite carries the finiteness of
    a factor checked once for many products.  One frame: a single
    sequence is scanned without a chain.
    """
    if rest_finite and all(map(math.isfinite, seqs[0] if len(seqs) == 1
                               else itertools.chain(*seqs))):
        return operator.mul
    return ext_mul


def pow_for(r: float) -> Callable[[Sequence[float]], List[float]]:
    """The vector power xs -> [ext_pow(x, r) for x in xs], for nonnegative
    extended reals xs (validated only where ext_pow is taken), with its
    rule picked once for the exponent r.

    For finite nonzero r, x ** r is ext_pow's own result, except that
    (-0.0) ** r is -0.0 for odd integer r, 0.0 ** r raises
    ZeroDivisionError for r < 0 and an overflow raises OverflowError.
    Adding +0.0 turns -0.0 into +0.0 and keeps every other entry, and on
    either exception the extended-real powers are taken instead.  r = 1
    takes no power at all.
    """
    if r == 1.0:
        return lambda xs: [x + 0.0 for x in xs]
    if r == 0.0 or not math.isfinite(r):
        return lambda xs: [ext_pow(x, r) for x in xs]
    if r % 2.0 == 1.0:
        def odd(xs: Sequence[float]) -> List[float]:
            try:
                return [x ** r + 0.0 for x in xs]
            except (ZeroDivisionError, OverflowError):
                return [ext_pow(x, r) for x in xs]
        return odd

    def power(xs: Sequence[float]) -> List[float]:
        try:
            return [x ** r for x in xs]
        except (ZeroDivisionError, OverflowError):
            return [ext_pow(x, r) for x in xs]
    return power


def pows(xs: Sequence[float], r: float) -> List[float]:
    """[ext_pow(x, r) for x in xs]: `pow_for(r)` applied once."""
    return pow_for(r)(xs)


def sup0(xs: Iterable[float]) -> float:
    """The largest of 0.0 and xs; a zero result is +0.0."""
    best = max(xs, default=0.0)
    return best if best > 0.0 else 0.0


def ext_muls(xs: Sequence[float], ys: Sequence[float]) -> List[float]:
    """[ext_mul(x, y) for the pairs of xs and ys]; a zero product of finite
    factors may be -0.0."""
    return list(map(mul_for(xs, ys), xs, ys))


def ext_dot(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sum of ext_mul(x, y) over the pairs, left to right from 0.0."""
    return sum(map(mul_for(xs, ys), xs, ys), 0.0)


def quotient(lhs: float, rhs: float) -> Optional[float]:
    """lhs / rhs on [0, inf]; None where the ratio says nothing (0/0, x/inf)."""
    if rhs == 0.0:
        return INF if lhs > 0.0 else None
    if math.isinf(rhs):
        return None
    return lhs / rhs


def conjugate(p: float) -> float:
    """Conjugate exponent p/(p-1); +inf at p = 1 and 1 at p = +inf.

    Negative for p in (0, 1).
    """
    if math.isnan(p) or p <= 0:
        raise ValueError(f"exponent must lie in (0, inf]: {p}")
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return INF
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentPair:
    """The exponent pair (p, q); both lie in (0, inf]."""

    p: float
    q: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if math.isnan(value) or value <= 0:
                raise ValueError(f"{name} must lie in (0, inf]: {value}")


# Kernel-inequality characterization, cases (i)-(x); NA when 1 <= p <= inf
# does not hold (or p = inf with 0 < q < 1, which the case list omits).
KERNEL_CASES = (
    "K_I", "K_II", "K_III", "K_IV", "K_V",
    "K_VI", "K_VII", "K_VIII", "K_IX", "K_X", "NA",
)

# p <= 1 characterization of the same inequality.
P_LE1_Q_GE_P = "P_LE1_Q_GE_P"
P_LE1_Q_INF = "P_LE1_Q_INF"
P_LE1_Q_LT_P = "P_LE1_Q_LT_P"

# Supremum-operator characterization, cases (i)-(v).
SUP_CASES = ("S_I", "S_II", "S_III", "S_IV", "S_V", "NA")


@dataclass(frozen=True)
class RegimeLabel:
    """One label per characterization family for a single (p, q)."""

    kernel_case: str    # one of KERNEL_CASES
    small_p_case: str   # one of the P_LE1_* labels, or "NA"
    sup_case: str       # one of SUP_CASES


def _kernel_case(p: float, q: float) -> str:
    if p < 1:
        return "NA"
    if p == 1:
        if math.isinf(q):
            return "K_II"
        return "K_I" if q >= 1 else "K_X"
    if math.isinf(p):
        if math.isinf(q):
            return "K_VI"
        return "K_III" if q >= 1 else "NA"
    # 1 < p < inf
    if math.isinf(q):
        return "K_V"
    if q == 1:
        return "K_IV"
    if q >= p:
        return "K_VII"
    if q > 1:
        return "K_VIII"
    return "K_IX"


def _small_p_case(p: float, q: float) -> str:
    if p > 1:
        return "NA"
    if math.isinf(q):
        return P_LE1_Q_INF
    if q >= p:
        return P_LE1_Q_GE_P
    return P_LE1_Q_LT_P


def _sup_case(p: float, q: float) -> str:
    if p < 1:
        return "NA"
    if math.isinf(q):
        return "S_III" if math.isinf(p) else "S_II"
    if math.isinf(p):
        return "S_IV"
    if p <= q:
        return "S_I"
    return "S_V"


def regime(e: ExponentPair) -> RegimeLabel:
    """Classify (p, q) under all three characterization families at once.

    Each family gets exactly one label; "NA" marks (p, q) outside the
    family's parameter range.
    """
    return RegimeLabel(
        kernel_case=_kernel_case(e.p, e.q),
        small_p_case=_small_p_case(e.p, e.q),
        sup_case=_sup_case(e.p, e.q),
    )
