"""Covering sequences and block decompositions.

A covering sequence for a weight w and ratio D > 1 is the strictly
increasing index sequence n_N < ... < n_M picked so that the tail sums
of w decay geometrically with ratio D along it.  The construction keeps,
for each occupied dyadic-like level, the largest index whose tail lies
in that level band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Optional

from .instance import Instance
from .numerics import INF, ext_dot, ext_mul, ext_pow, pows
from .oracle import _values
from .weights import TestSequence, WeightSeq, tail_sum

NEG_INF = -math.inf


@dataclass(frozen=True)
class CoveringSeq:
    """Covering sequence data: ratio D, index range [N, M], picked indices.

    ``indices`` holds (n_{N-1}, n_N, ..., n_M) where the leading entry is
    the -inf sentinel.  ``levels`` holds the occupied level exponents m_k
    used during construction, one per finite index.
    """

    D: float
    N: int
    M: int
    indices: tuple   # (-inf, n_N, ..., n_M)
    levels: tuple    # (m_N, ..., m_M)

    @property
    def picks(self) -> tuple:
        """The finite indices n_N..n_M."""
        return self.indices[1:]

    def index(self, k: int):
        """n_k for k in [N-1, M]; n_{N-1} is -inf."""
        if not (self.N - 1 <= k <= self.M):
            raise IndexError(f"k out of range: {k}")
        return self.indices[k - self.N + 1]


def _level(t: float, D: float) -> int:
    """The integer k with D^-k < t <= D^-(k-1), for 0 < t < inf; a bound
    D^-k that overflows counts as +inf."""
    if math.isinf(t):
        raise ValueError("weight tail sum overflows to inf: no level contains it")

    def bound(e: int) -> float:
        try:
            return D ** e
        except OverflowError:
            return INF
    k = math.floor(-math.log(t) / math.log(D)) + 1
    # Guard against log rounding at exact level boundaries.
    while t <= bound(-k):
        k += 1
    while t > bound(-k + 1):
        k -= 1
    return k


def covering_sequence(w: WeightSeq, D: float) -> CoveringSeq:
    """Build the covering sequence of w for ratio D > 1.

    Each window index j with positive tail is assigned to the level band
    containing its tail sum; the pick for a band is its largest index.
    Raises on an identically zero weight.
    """
    if not D > 1:
        raise ValueError("D must exceed 1")
    if tail_sum(w, w.start) == 0.0:
        raise ValueError("empty weight: all entries are zero")
    picks: Dict[int, int] = {}
    for j in w.indices():
        t = tail_sum(w, j)
        if t <= 0.0:
            break
        picks[_level(t, D)] = j  # ascending j: later wins, giving sup A_m
    levels = tuple(sorted(picks))
    indices = (NEG_INF,) + tuple(picks[m] for m in levels)
    return CoveringSeq(D=float(D), N=0, M=len(levels) - 1, indices=indices,
                       levels=levels)


@dataclass(frozen=True)
class CoveringReport:
    ok: bool
    failed_clause: Optional[str] = None
    detail: str = ""


def verify_covering(w: WeightSeq, cs: CoveringSeq) -> CoveringReport:
    """Re-check the three covering-sequence clauses numerically."""
    picks = cs.picks
    if any(picks[i] >= picks[i + 1] for i in range(len(picks) - 1)):
        return CoveringReport(False, "i", "indices not strictly increasing")
    n_M = picks[-1]
    if tail_sum(w, n_M) <= 0.0:
        return CoveringReport(False, "i", f"tail at n_M={n_M} is zero")
    if tail_sum(w, n_M + 1) != 0.0:
        return CoveringReport(False, "i", f"nonzero tail beyond n_M={n_M}")
    for k in range(cs.N, cs.M + 1):
        prev = cs.index(k - 1)
        lo = w.start if prev == NEG_INF else int(prev) + 1
        if tail_sum(w, lo) > cs.D * tail_sum(w, cs.index(k)):
            return CoveringReport(False, "ii", f"clause (ii) fails at k={k}")
    for k in range(cs.N + 1, cs.M):
        if cs.D * tail_sum(w, cs.index(k) + 1) > tail_sum(w, cs.index(k - 1)):
            return CoveringReport(False, "iii", f"clause (iii) fails at k={k}")
    return CoveringReport(True)


@dataclass(frozen=True)
class SumBounds:
    lower: float
    middle: float
    upper: float


def weighted_sum_bounds(w: WeightSeq, b: TestSequence, cs: CoveringSeq) -> SumBounds:
    """Two-sided bound on sum of w_n b_n via covering-sequence pivots.

    Requires b nondecreasing on the window.  With
    S = sum over k of tail(n_k) * b_{n_k}, the bound is
    ((D-1)/(3D)) * S <= sum w_n b_n <= D * S.
    """
    if b.start != w.start or len(b) != len(w):
        raise ValueError("b must share the window with w")
    for i in range(len(b.values) - 1):
        if b.values[i] > b.values[i + 1]:
            raise ValueError(f"b is not nondecreasing at offset {i}")
    middle = sum(w[n] * b[n] for n in w.indices())
    S = sum(tail_sum(w, nk) * b[nk] for nk in cs.picks)
    D = cs.D
    return SumBounds(lower=(D - 1.0) / (3.0 * D) * S, middle=middle, upper=D * S)


@dataclass(frozen=True)
class BlockDecomposition:
    lhs: float
    block_term: float
    cross_term: float
    ratio: float


def l24_threshold(p: float, q: float, c_star: float) -> float:
    """Smallest admissible covering ratio for the block decomposition."""
    m = max(1.0, ext_pow(2.0, q / p - 1.0))
    need = 2.0 * m * m * ext_pow(c_star, q / p)
    # inf * 0 where 2^(q/p - 1) overflows and C^(q/p) underflows; for
    # q > p the threshold is also (4C)^(q/p) / 2.
    return 0.5 * ext_pow(4.0 * c_star, q / p) if math.isnan(need) else need


def default_ratio(p: float, q: float, c_star: float) -> float:
    """Default D: valid for the block decomposition and at least 2.

    Raises ValueError when the threshold is not finite (a kernel that is
    not regular, C = inf): then no covering ratio is admissible.
    """
    need = l24_threshold(p, q, c_star)
    if not math.isfinite(need):
        raise ValueError(
            f"no admissible covering ratio: the threshold "
            f"2*max(1,2^(q/p-1))^2*C^(q/p) is {need} (regularity constant "
            f"C = {c_star}); give a covering ratio D explicitly")
    return max(2.0, math.ceil(need))


def decomposition_ratio(lhs: float, parts: float) -> float:
    """lhs / parts on [0, inf] for a block decomposition: 1 where both are
    0 or both are inf, inf where only parts is 0."""
    if lhs == parts:
        return 1.0
    return lhs / parts if parts > 0 else INF


def l24_decompose(inst: Instance, a: TestSequence, cs: CoveringSeq) -> BlockDecomposition:
    """Split the iterated-sum functional into block and cross terms.

    lhs is sum over n of w_n (sum_{i<=n} U(i,n)^p a_i^p)^(q/p); the block
    term runs over covering blocks evaluated at the pivots, and the cross
    term carries the interaction between consecutive blocks.  Requires
    p <= 1, finite q and a covering ratio at or above the admissible
    threshold for the regularity constant of U^p.  A covering ratio that
    clears the threshold of an upper bound on that constant
    (`Kernel.power_regularity_bound`) is admitted without the O(L^3) scan
    of U^p; only the exact constant turns one down.  ratio is
    lhs / (block + cross), and 1 when both are 0 or both are inf.  a is
    read on the window as `oracle.functional_lhs` reads it: zero where it
    has no entry, and a nonzero entry outside the window raises.
    """
    p, q = inst.p, inst.q
    if not (0 < p <= 1):
        raise ValueError("block decomposition requires 0 < p <= 1")
    if math.isinf(q):
        raise ValueError("block decomposition requires finite q")
    w, U = inst.w, inst.kernel
    need = l24_threshold(p, q, U.power_regularity_bound(p))
    if not (need < INF and cs.D >= need):
        need = l24_threshold(p, q, U.power_regularity(p))
        if math.isinf(need) or cs.D < need:
            raise ValueError(
                f"covering ratio D={cs.D} below the required threshold "
                f"2*max(1,2^(q/p-1))^2*C^(q/p) = {need}")
    lo = inst.start
    # Column n of U^p, ext_pow(U(i, n), p) for window offsets i <= n, and
    # its finiteness: the kernel's powered view (at p = 1 its +0.0 copy,
    # whose zeros no sum from 0 shows by sign); an entry can overflow to
    # inf, and then the products take 0 * inf = 0.
    Up_cols, Up_finite = U.powered(p)
    mul = operator.mul if Up_finite else ext_mul
    ap = pows(_values(inst, a), p)

    def inner(i0: int, i1: int, n: int) -> float:
        i0, i1 = max(i0, lo) - lo, min(i1, n) - lo + 1
        return sum(map(mul, Up_cols[n - lo][i0:i1], ap[i0:i1]))

    lhs = ext_dot(w.values, pows([inner(lo, n, n) for n in inst.v.indices()], q / p))
    block = 0.0
    cross = 0.0
    for k in range(cs.N, cs.M + 1):
        nk = cs.index(k)
        prev = cs.index(k - 1)
        b0 = lo if prev == NEG_INF else int(prev) + 1
        block += ext_mul(tail_sum(w, nk), ext_pow(inner(b0, nk, nk), q / p))
        if prev != NEG_INF:
            head = sum(ap[:int(prev) - lo + 1])
            uq = ext_pow(U.eval(int(prev), nk), q)
            cross += ext_mul(ext_mul(tail_sum(w, nk), uq), ext_pow(head, q / p))
    return BlockDecomposition(lhs=lhs, block_term=block, cross_term=cross,
                              ratio=decomposition_ratio(lhs, block + cross))
