"""Discrete <-> continuous bridge on piecewise-constant (step) data.

A window instance extends to the real line by making every datum
constant on unit cells (n-1, n]; all integrals then reduce to finite
sums or per-cell closed forms, so the continuous side is computed
exactly, except for one cell integral of calA_12/calA_13 at 1 < p.
That one is a fixed tanh-sinh rule on scaled factors (`_quad_cell`),
tested within 1e-14 relative of mpmath at 50 digits wherever the cell's
value is a normal double and E = q/(p - q) is moderate.  Continuous test
functions are step functions on the half-unit grid: half-cell
resolution is all the two-sided factor bound between the discrete and
continuous best constants ever needs.

The continuous ratio of `bridge_check` is built once per call
(`_cont_ratio`): the weights, the kernel columns U(m, n), whether every
column entry is finite, per cell with w_n > 0 its column head and
diagonal entry, q and 1/q are bound once, and each candidate, the 2L
values of a step function on the half-unit pieces, is evaluated
directly.  `_cell_lhs` binds either continuous left-hand side, the
iterated integral (GOP_DUAL, L2, calA_4) or the supremum (SUP_ITER, L1,
L3), to one piece length, 1/2 for the search and 1 for
`lemma_decompose` and calA_4, and returns a function of the flat piece
values whose one sweep over the cells can start at any cell from the
running outer total before it.  Like the oracle's evaluator, a candidate
pays for its arithmetic, one C-level finiteness scan of its cell masses
(or their running sums) that picks the multiplication `numerics.mul_for`
gives (ext_mul where a factor is infinite, so that 0 * inf = 0 still
holds), and `numerics.ext_pow` of the outer sum (one comparison before
the power where the sum is positive and finite).  The ascent's moves
change one piece, so the ratio evaluates each from the moved cell on,
bit for bit the full evaluation (`_ContRatio`).  From a point whose
products are all plain, that sweep needs no scan and no per-piece call:
it writes each cell's two half pieces out with the closed forms of
`_int_pow_linear` and `_int_pow_max`, sharing the powers the two pieces
of a cell have in common, and leaves zero slopes and every value that
overflows to `_cell_lhs`.
At q = inf the inner value is nondecreasing on each cell, so its sup
over a cell sits at the cell's right edge: the left-hand side is the
oracle's discrete evaluator applied to the cell masses.  The right-hand
side is the oracle's weighted norm `_norm` with v and p, piece length
1/2 and each v_n on both halves of its cell.  `lemma_decompose` walks
each dyadic block once through `StepFunction.pieces` (`_block`), for
its kernel-weighted integral or supremum.

`bridge_check` runs one oracle search per side, `auto` at finite p.  At
p = inf every form is nondecreasing in its test function, so each side
is its vertex pass plus its ratio at the oracle's point `top` (1/v times
a power of two that keeps large powers in range; on the continuous side
on both halves of every cell), exact by monotonicity, as calA_4 is.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .constants import _pair_sup, _uq_tails, condition_A
from .discretize import NEG_INF, _level, decomposition_ratio
from .instance import Instance
from .numerics import (INF, ext, ext_mul, ext_muls, ext_pow, finite, mul_for,
                       pow_for, pows, quotient, sup0)
from .oracle import (Ratios, _at_top, _evaluator, _form_ratios, _norm, _Search,
                     vertex_exact)
from .weights import TestSequence, WeightSeq, sigma_p_running, sigma_terms


class StepFunction(WeightSeq):
    """Nonnegative step function: values[j] on (start-1+j, start+j]."""

    def mass(self) -> float:
        return float(sum(self.values))

    def cum(self, t: float) -> float:
        """Integral over (-inf, t]."""
        if t <= self.start - 1:
            return 0.0
        total = 0.0
        for j, val in enumerate(self.values):
            left = self.start - 1 + j
            if t >= left + 1:
                total += val
            else:
                total += val * (t - left)
                break
        return total

    def tail(self, x: float) -> float:
        """Integral over (x, inf), summed from the pieces right of x."""
        return math.fsum(mass for _, mass in self.pieces(x, self.stop))

    def pieces(self, a: float, b: float) -> Iterator[Tuple[float, float]]:
        """For each piece clipped to (a, b], its right end and its mass."""
        for j, val in enumerate(self.values):
            left, right = self.start - 1.0 + j, self.start + 0.0 + j
            lo, hi = max(left, a), min(right, b)
            if hi > lo:
                yield hi, val * (hi - lo)


def tail_invert(w: StepFunction, level: float) -> float:
    """The largest x with integral of w over (x, inf) equal to level.

    Exact piecewise-linear inversion; flat (zero-weight) stretches are
    skipped by always returning the rightmost point of the level set.
    The walk adds the cells top-down and `mass` bottom-up; a level above
    the walk's sum is the whole mass: the lowest positive cell's left end.
    """
    if not level > 0:
        raise ValueError("level must be positive")
    total = w.mass()
    if level > total:
        raise ValueError(f"level {level} exceeds total mass {total}")
    right_tail = 0.0  # tail at the right endpoint of the current cell
    for n in range(w.stop, w.start - 1, -1):
        wn = w[n]
        left_tail = right_tail + wn
        if right_tail < level <= left_tail:
            return n - (level - right_tail) / wn
        right_tail = left_tail
    return next(n - 1.0 for n in w.indices() if w[n] > 0)


@dataclass(frozen=True)
class DyadicCovering:
    """Points x_k with tail integral exactly 2^-k, k = N..top.

    ``points`` is (-inf, x_N, ..., x_top); N satisfies
    2^-N < total mass <= 2^-(N-1).
    """

    N: int
    points: tuple

    @property
    def picks(self) -> tuple:
        return self.points[1:]

    def index(self, k: int):
        if not (self.N - 1 <= k <= self.top):
            raise IndexError(f"k out of range: {k}")
        return self.points[k - self.N + 1]

    @property
    def top(self) -> int:
        return self.N + len(self.points) - 2


def dyadic_covering(w: StepFunction) -> DyadicCovering:
    """Dyadic covering sequence of a step weight with positive mass.

    The levels 2^-k, k = N..max(20, N + 20), that do not underflow: at
    least 20 halvings below the mass (beyond, points pile up at the top).
    """
    mass = w.mass()
    if not mass > 0:
        raise ValueError("zero-mass weight has no dyadic covering")
    N = _level(mass, 2.0)
    levels = (2.0 ** -k for k in range(N, max(20, N + 20) + 1))
    pts = tuple(tail_invert(w, x) for x in levels if x > 0.0)
    return DyadicCovering(N=N, points=(NEG_INF,) + pts)


# ---------------------------------------------------------------------------
# Exact per-cell evaluation helpers.  A step function is given by its flat
# piece values g of one piece length h (see the module docstring).

def _int_pow_linear(a: float, b: float, r: float, length: float) -> float:
    """Integral of (a + b*s)^r over s in [0, length], a, b >= 0, r > 0."""
    if a == 0.0 and b == 0.0:
        return 0.0
    try:
        if b == 0.0:
            return a ** r * length
        hi = (a + b * length) ** (r + 1.0)
        if hi == INF:  # a or b is infinite, or a + b * length overflowed
            return INF
        return (hi - a ** (r + 1.0)) / (b * (r + 1.0))
    except OverflowError:
        return INF


def _int_pow_max(c: float, a: float, b: float, r: float, length: float) -> float:
    """Integral of max(c, a + b*s)^r over s in [0, length]; b >= 0."""
    if b == 0.0 or a >= c:
        return _int_pow_linear(a if a >= c else c, b, r, length)
    if c == INF:  # the integrand is inf throughout; (c - a) / b may be inf / inf
        return INF
    s_cross = (c - a) / b
    try:
        cr = c ** r
    except OverflowError:
        cr = INF
    if s_cross >= length:
        return cr * length
    return cr * s_cross + _int_pow_linear(c, b, r, length - s_cross)


def _masses(g: Sequence[float], h: float) -> Sequence[float]:
    """Per window cell, the mass of the step function with values g on
    pieces of length h (1 or 1/2)."""
    if h == 1.0:
        return g
    return [h * x + h * y for x, y in zip(g[::2], g[1::2])]


def _image(a: Sequence[float]) -> List[float]:
    """The full-cell step extension of a: a_n on both halves of cell n."""
    return [x for t in a for x in (t, t)]


def _columns(inst: Instance, r: float) -> List[List[float]]:
    """The kernel columns cols[n][m] = U(m, n)^r for window offsets m <= n:
    the kernel's stored columns, raised to r."""
    return list(map(pow_for(r), inst.kernel.columns))


def _cells(w: Sequence[float], cols: List[List[float]]
           ) -> List[Tuple[int, float, List[float], float]]:
    """Per window cell n with w_n > 0: n, w_n, the column head U(m, n) for
    m < n and the diagonal entry U(n, n)."""
    return [(n, wn, cols[n][:n], cols[n][n]) for n, wn in enumerate(w) if wn != 0.0]


def _firsts(cells: List[Tuple[int, float, List[float], float]], length: int
            ) -> List[int]:
    """Per window cell c, and c = length, the index in cells of the first
    cell n >= c."""
    ns = [n for n, *_ in cells]
    return [bisect.bisect_left(ns, c) for c in range(length + 1)]


# A left-hand side is the outer sum over the cells with w_n > 0, in
# ascending n, of w_n times the integral over cell n of a power of its
# inner value, raised to `outer`; `_cell_lhs` returns it as a function
#     lhs(g, masses=None, c=0, totals=(), keep=None)
# of the flat piece values g (and their cell masses, computed when None).
# The integral and the supremum share the sweep and differ only in each
# cell's loop over its pieces.  The sweep can start at cell c of a point
# that differs from g only on cells c and above: given that point's
# running totals before each cell (and the final one), `totals`, it
# resumes from the total before its first cell n >= c.  Given a list
# `keep`, it leaves there g's running totals.


def _cell_lhs(w: Sequence[float], cols: List[List[float]], h: float, e: float,
              outer: float, sup: bool) -> Callable[..., float]:
    """g -> (sum over n of w_n * integral over cell n of
    (int_{-inf}^t U(y,t)^r f)^e)^outer, or with sup of
    (esssup_{y<=t} U(y,t)^r F(y))^e, F the primitive of f.

    f has values g on pieces of length h, w is the window values of w and
    cols is `_columns(inst, r)`; the cells and the columns' finiteness (a
    power can overflow to inf) are bound here, once.
    """
    cols_finite = finite(*cols)
    cells = _cells(w, cols)
    firsts = _firsts(cells, len(cols))
    k = round(1.0 / h)  # pieces per cell

    def lhs(g: Sequence[float], masses: Optional[Sequence[float]] = None, c: int = 0,
            totals: Sequence[float] = (), keep: Optional[list] = None) -> float:
        if masses is None:
            masses = _masses(g, h)
        if sup:
            # cum[n] = F at the right edge of cell n-1, and the column head
            # multiplies F at the right edges; F stays finite where cum does.
            cum = list(itertools.accumulate(masses, initial=0.0))
            masses = cum[1:]
        mul = mul_for(masses, rest_finite=cols_finite)
        t = firsts[c]
        total = totals[t] if totals else 0.0
        if keep is not None:
            keep += totals[:t]
        for n, wn, head, un in cells[t:]:
            if keep is not None:
                keep.append(total)
            acc = 0.0
            if sup:
                peak = sup0(map(mul, head, masses))
                F = cum[n]
                for val in g[k * n:k * n + k]:
                    acc += _int_pow_max(peak, mul(un, F), mul(un, val), e, h)
                    F += val * h
            else:
                base = sum(map(mul, head, masses))
                for val in g[k * n:k * n + k]:
                    slope = mul(un, val)
                    acc += _int_pow_linear(base, slope, e, h)
                    base += slope * h
            total += wn * acc  # wn > 0, so this is ext_mul
            if total == INF:
                return INF
        if keep is not None:
            keep.append(total)
        return ext_pow(total, outer)
    return lhs


class _ContRatio:
    """lhs(f) / rhs(f) of the continuous form, as a function of the values g
    of the step function f on the half-unit pieces of the window, and the
    evaluator of the ascent's one-piece moves (see `oracle.Ratios`).

    Built once per bridge_check: the weights with their finiteness, the
    kernel columns and theirs, q and 1/q depend only on (form, instance).
    Given a list `out`, an evaluation keeps the point's state there: its
    cell masses, the left-hand side's running totals and the right-hand
    side's terms h g_j^p v_j.  A move of piece j changes the mass of cell
    j // 2 only, so from that state the left-hand sweep resumes at that
    cell, and the right-hand side adds the terms again with term j
    replaced.  Both add the same floats in the same order as the full
    evaluation, so a move's ratio is the full evaluation's bit for bit.
    A state is kept only where every product is a plain one
    (`numerics.mul_for`: finite columns, weights, masses with a finite
    sum, and terms) and the left-hand side is finite, at finite p and q;
    a move from anywhere else, or to a piece whose mass or term is not
    finite, is evaluated in full.

    From a state the left-hand sweep is `_sweep`, which knows every
    product to be plain: it skips `mul_for`'s scan and writes out each
    cell's two pieces, and hands a move with a zero slope, an overflowing
    power or a total that is not finite to `_cell_lhs`.  A swept cell then
    costs its column head sum (or max) in C and the powers of its two
    pieces.  The head is added again in every swept cell: partial sums
    kept per cell would have to be rebuilt on every accepted move, which
    at the window lengths an ascent runs costs more than the sums save.
    """

    def __init__(self, form: str, inst: Instance):
        if form not in ("GOP_DUAL", "SUP_ITER"):
            raise ValueError(f"bridge supports GOP_DUAL and SUP_ITER, not {form}")
        p, q = inst.p, inst.q
        self.n_pieces = 2 * inst.length
        self.vv = _image(inst.v.values)
        self.rhs = _norm(self.vv, p, 0.5)
        self.p, self.inv_p = p, 1.0 / p
        if math.isinf(q):
            disc = _evaluator(form, inst)
            self.lhs = lambda g: disc(_masses(g, 0.5))
            self.resumes = False
        else:
            cols = _columns(inst, 1.0)
            self.sup, self.q, self.inv_q = form == "SUP_ITER", q, 1.0 / q
            self.lhs = _cell_lhs(inst.w.values, cols, 0.5, q, self.inv_q, self.sup)
            self.cells = _cells(inst.w.values, cols)
            self.firsts = _firsts(self.cells, inst.length)
            self.resumes = math.isfinite(p) and finite(*cols, inst.w.values, self.vv)

    def __call__(self, g: Sequence[float], out: Optional[list] = None
                 ) -> Optional[float]:
        if len(g) != self.n_pieces:
            raise ValueError("half-grid vector must have 2 * window length entries")
        if not all(map((0.0).__le__, g)):
            for x in g:
                ext(x)  # raises the entry's validation error
        if out is None or not self.resumes:
            return quotient(self.lhs(g), self.rhs(g))
        masses, totals, rhs_out = _masses(g, 0.5), [], []
        lhs, rhs = self.lhs(g, masses, 0, (), totals), self.rhs(g, rhs_out)
        terms = list(map(operator.mul, rhs_out[0], self.vv))  # rhs_out: h g^p, their sum
        if lhs < INF and math.isfinite(sum(masses)) and math.isfinite(sum(terms)):
            out.append((masses, totals, terms))
        return quotient(lhs, rhs)

    def state(self, out: list) -> Optional[tuple]:
        return out[0] if out else None

    def move(self, st: tuple, j: int, y: List[float], cur: float, out: list,
             ratio: Callable[[List[float], list], Optional[float]]) -> Optional[float]:
        """The ratio at y, which moves piece j of the point of st; ratio(y,
        out) where the move leaves the plain products."""
        masses, totals, terms = st
        c = j // 2
        masses, terms = list(masses), list(terms)
        masses[c] = 0.5 * y[2 * c] + 0.5 * y[2 * c + 1]  # as `_masses` forms it
        terms[j] = ext_pow(y[j], self.p) * 0.5 * self.vv[j]  # as `_norm` forms it
        total = sum(terms)
        if not (math.isfinite(sum(masses)) and math.isfinite(total)):
            return ratio(y, out)
        keep = self._sweep(y, masses, c, totals)
        if keep is None:
            keep = []
            lhs = self.lhs(y, masses, c, totals, keep)
        else:
            lhs = ext_pow(keep[-1], self.inv_q)
        if lhs < INF:
            out.append((masses, keep, terms))
        return quotient(lhs, ext_pow(total, self.inv_p))

    def _sweep(self, g: List[float], masses: List[float], c: int,
               totals: List[float]) -> Optional[List[float]]:
        """The running totals `_cell_lhs` keeps for g, resumed at cell c,
        where every product is a plain float product and every value is
        finite; None where a slope is 0 (the closed forms below divide by
        it), a power overflows, or the total is inf or NaN: `_cell_lhs`
        then evaluates g.

        Each cell's two half pieces are written out with the closed forms
        of `_int_pow_linear` and `_int_pow_max`, in their operations and
        order.  Piece 1 of the integral starts where piece 0 ends, so
        (base + s_0 h)^(e+1) is both piece 0's upper and piece 1's lower
        term.  The supremum takes peak^e at most once per cell, and
        peak^(e+1) only in a piece where a + b s crosses the peak."""
        h, e, e1, mul = 0.5, self.q, self.q + 1.0, operator.mul
        t = self.firsts[c]
        total, keep = totals[t], totals[:t]
        try:
            if self.sup:
                cum = list(itertools.accumulate(masses, initial=0.0))
                edges = cum[1:]
                for n, wn, head, un in self.cells[t:]:
                    keep.append(total)
                    # sup0's value: no product of these is -0.0 or NaN.
                    peak = max(map(mul, head, edges), default=0.0)
                    cr = None
                    F, acc = cum[n], 0.0
                    for val in g[2 * n:2 * n + 2]:
                        a, b = un * F, un * val
                        if a >= peak:
                            acc += ((a + b * h) ** e1 - a ** e1) / (b * e1)
                        else:
                            s = (peak - a) / b  # where a + b s reaches the peak
                            if cr is None:
                                cr = peak ** e
                            acc += (cr * h if s >= h else cr * s
                                    + ((peak + b * (h - s)) ** e1 - peak ** e1) / (b * e1))
                        F += val * h
                    total += wn * acc
            else:
                for n, wn, head, un in self.cells[t:]:
                    keep.append(total)
                    base = sum(map(mul, head, masses))
                    s0, s1 = un * g[2 * n], un * g[2 * n + 1]
                    mid = base + s0 * h
                    m = mid ** e1
                    total += wn * ((m - base ** e1) / (s0 * e1)
                                   + ((mid + s1 * h) ** e1 - m) / (s1 * e1))
        except (ZeroDivisionError, OverflowError):
            return None
        if not total < INF:
            return None
        keep.append(total)
        return keep


def _cont_ratio(form: str, inst: Instance) -> _ContRatio:
    """The continuous ratio of the form on the instance (`_ContRatio`)."""
    return _ContRatio(form, inst)


# ---------------------------------------------------------------------------
# Continuous characterizing constants on step data.

def _tail_parts(inst: Instance) -> Tuple[List[float], List[float]]:
    """Per cell n: strict tail sum of U(n,m)^q w_m over m > n, and U(n,n)^q w_n."""
    q = inst.q
    strict = _uq_tails(inst, q, strict=True)
    own = list(map(ext_mul, pows([col[-1] for col in inst.kernel.columns], q),
                   inst.w.values))
    return strict, own


def continuous_constant(name: str, inst: Instance) -> float:
    """Exact characterizing constant of the step extension of the instance.

    Regimes: calA_1 needs 1 <= p <= q < inf; calA_2 needs 1 <= p < inf
    and q = inf; calA_3 needs p = q = inf; calA_4 needs p = inf and
    finite q; calA_12/calA_13 need q < p and 1 <= p < inf.  The dual
    quantity sigma_p is clipped at the window bottom (zero extension
    would make it infinite everywhere); reports flag this clip.  At
    p = inf calA_3 is A_6, WEAK's left-hand side at f = 1/v, and calA_4 the
    continuous GOP_DUAL one on unit pieces, each through `oracle._at_top`.
    """
    p, q = inst.p, inst.q
    w = inst.w.values

    if name == "calA_1":
        if not (1 <= p <= q) or math.isinf(q):
            raise ValueError("calA_1 needs 1 <= p <= q < inf")
        strict, own = _tail_parts(inst)
        if p == 1.0:
            return sup0(ext_muls(sigma_p_running(inst.v, p),
                                 pows(list(map(operator.add, strict, own)), 1.0 / q)))
        pc = p / (p - 1.0)
        best = 0.0
        terms = sigma_terms(inst.v, p)
        for A, a, B, b in zip(itertools.accumulate(terms, initial=0.0), terms,
                              strict, own):
            cands = [(A, B + b), (A + a, B)]
            if all(math.isfinite(t) for t in (A, a, B, b)) and a > 0 and b > 0:
                num = a * q * (B + b) - b * pc * A
                den = a * b * (q + pc)
                if math.isfinite(num) and sys.float_info.min <= den < INF:
                    s = num / den
                else:
                    # A product under- or overflowed: the same point from
                    # the scale-free ratios B/b and A/a.
                    s = (q * (B / b + 1.0) - pc * (A / a)) / (q + pc)
                if 0.0 < s < 1.0:
                    cands.append((A + a * s, B + b * (1.0 - s)))
            for S, I in cands:
                best = max(best, ext_mul(ext_pow(S, 1.0 / pc), ext_pow(I, 1.0 / q)))
        return best

    if name == "calA_2":
        if not (1 <= p) or math.isinf(p) or not math.isinf(q):
            raise ValueError("calA_2 needs 1 <= p < inf and q = inf")
        return _pair_sup(inst, sigma_p_running(inst.v, p), w)

    if name == "calA_3":
        if not (math.isinf(p) and math.isinf(q)):
            raise ValueError("calA_3 needs p = q = inf")
        return condition_A(6, inst)

    if name == "calA_4":
        if not math.isinf(p) or math.isinf(q):
            raise ValueError("calA_4 needs p = inf and finite q")
        return _at_top(_cell_lhs(w, _columns(inst, 1.0), 1.0, q, 1.0 / q, False),
                       inst.v.values)

    if name in ("calA_12", "calA_13"):
        if not (1 <= p < INF) or not (0 < q < p) or math.isinf(q):
            raise ValueError(f"{name} needs 1 <= p < inf and 0 < q < p")
        E = q / (p - q)
        outer = (p - q) / (p * q)
        sig_terms = sigma_terms(inst.v, p)
        # sigma through cell n-1: a running max at p = 1, a running sum above.
        sig_heads = itertools.accumulate(
            sig_terms, max if p == 1.0 else operator.add, initial=0.0)
        if name == "calA_12":
            # tail(s) = a + b*(1-s) on cell n: a is the w mass right of n.
            w_after = list(itertools.accumulate(reversed(w), initial=0.0))[-2::-1]
            r, lins = p * E, zip(w_after, w)
        else:
            r, lins = q, zip(*_tail_parts(inst))
        total = 0.0
        for wn, col, sig_A, sig_a, (lin_a, lin_b) in zip(
                w, inst.kernel.columns, sig_heads, sig_terms, lins):
            K = ext_mul(wn, ext_pow(max(col), r))
            if K == 0.0:
                continue
            if p == 1.0:
                cell = ext_mul(ext_mul(K, ext_pow(max(sig_A, sig_a), E)),
                               _int_pow_linear(lin_a, lin_b, E, 1.0))
            else:
                cell = _quad_cell(K, lin_a, lin_b, E, sig_A, sig_a, p / (p - 1.0))
            total += cell
            if total == INF:
                return INF
        return ext_pow(total, outer)

    raise ValueError(f"unknown continuous constant: {name}")


def _tanh_sinh(h: float, n: int) -> Tuple[Tuple[float, float, float], ...]:
    """Nodes (s, 1 - s, weight) of the tanh-sinh rule on [0, 1] with step h.

    s = 1/(1 + e^-u) at u = pi sinh(kh) for |k| <= n, and 1 - s is
    1/(1 + e^u) rather than a difference, so both stay exact to a few
    ulps however close a node is to its end; the weight is
    h ds/dt = h pi cosh(kh) s (1 - s).
    """
    nodes = []
    for k in range(-n, n + 1):
        u = math.pi * math.sinh(k * h)
        s, sc = 1.0 / (1.0 + math.exp(-u)), 1.0 / (1.0 + math.exp(u))
        nodes.append((s, sc, h * math.pi * math.cosh(k * h) * s * sc))
    return tuple(nodes)


# Takahasi & Mori's double-exponential rule (Publ. RIMS 9, 1974): 105
# nodes reach 1 - s ~ 3e-18, below which a bounded integrand adds nothing.
_TANH_SINH = _tanh_sinh(1.0 / 16, 52)


def _quad_cell(K: float, lin_a: float, lin_b: float, E: float,
               sig_A: float, sig_a: float, pc: float) -> float:
    """K * integral over s in [0,1] of (lin_a + lin_b(1-s))^E (A + a s)^(E/pc).

    The two linear factors carry different exponents, so this single
    case is integrated numerically; everything else in the module is in
    closed form.  The factors are divided by m1 = max(lin_a, lin_b) and
    m2 = max(A, a), so both lie in [0, 2], and integrated by the
    tanh-sinh rule `_TANH_SINH`.  Where E + E/pc > 32 the integrand peaks
    inside (0, 1), narrower than one rule resolves, so the rule runs on
    2^k equal pieces (at most 64).  Against mpmath at 50 digits the
    scaled integral is within 1.5e-15 relative up to E = 39; beyond, the
    rounding of nodes and bases, multiplied by the exponents, leaves
    up to about (E + E/pc) eps (6e-14 at E = 1000).
    K m1^E m2^(E/pc) is applied afterwards: by plain products where every
    factor and partial product is a normal double, else in 40-digit
    decimal arithmetic, which rounds once, to a subnormal, 0 or inf as
    the value falls.  Where E + E/pc exceeds about 1000 the scaled
    integral itself can overflow (the cell is then inf) or underflow.
    """
    if math.isinf(sig_A) or math.isinf(sig_a):
        return INF if lin_a + lin_b > 0 else 0.0
    m1, m2 = max(lin_a, lin_b), max(sig_A, sig_a)
    if m1 == 0.0 or m2 == 0.0:
        return 0.0
    if math.isinf(m1):
        return INF
    F = E / pc
    a, b, A, c = lin_a / m1, lin_b / m1, sig_A / m2, sig_a / m2
    n = 1
    while E + F > 32.0 * n * n and n < 64:
        n *= 2
    # On piece j, s = (j + s')/n and 1 - s = (n - 1 - j + (1 - s'))/n.
    nodes = _TANH_SINH if n == 1 else [
        ((j + s) / n, (n - 1 - j + sc) / n, wt / n)
        for j in range(n) for s, sc, wt in _TANH_SINH]
    try:
        val = math.fsum([wt * (a + b * sc) ** E * (A + c * s) ** F
                         for s, sc, wt in nodes])
    except OverflowError:
        return INF
    if val == 0.0:
        return 0.0
    try:
        parts = (K, m1 ** E, m2 ** F, val)
    except OverflowError:
        parts = (INF,)
    prods = tuple(itertools.accumulate(parts, operator.mul))
    if all(sys.float_info.min <= x < INF for x in parts + prods):
        return prods[-1]
    # Only extreme scales get here, so decimal is imported here.
    from decimal import Context, Decimal
    ctx = Context(prec=40, traps=[])
    out = ctx.multiply(Decimal(K), Decimal(val))
    for m, r in ((m1, E), (m2, F)):
        out = ctx.multiply(out, ctx.power(Decimal(m), Decimal(r)))
    return float(out)


# ---------------------------------------------------------------------------
# Bridge check.

@dataclass(frozen=True)
class BridgeReport:
    form: str
    C_discrete: float
    C_continuous: float
    factor_bound: float
    factor_ok: bool
    slack: float
    discrete_witness: TestSequence
    continuous_witness: tuple  # half-grid values


def bridge_check(inst: Instance, form: str = "GOP_DUAL", budget: int = 2000,
                 seed: int = 0) -> BridgeReport:
    """Two-sided factor bound between discrete and continuous constants.

    Each side is one oracle search: `auto` at finite p, and at p = inf
    `vertex`, whose vertex pass gives exactly inf where a zero v_j
    reaches a positive w and which then takes the ratio at the point
    `top` (see the module docstring), the extended-real lhs(1/v) with
    0 * inf = 0; at the smallest budget, 2L, the continuous side has no
    room for that point.  Each side is then cross-seeded with the image
    of the other side's witness under the proof maps (a_n = cell mass of
    f, and f = the full-cell step extension of a), so the factor inequality
    C_continuous <= C_discrete <= 2^(1 + 1/q) * C_continuous
    holds by construction whenever both sides reach consistent maxima;
    any residual violation is reported as slack, and factor_ok allows 2 %.
    """
    if inst.p < 1:
        raise ValueError("the bridge needs 1 <= p <= inf")
    q = inst.q
    bound = ext_pow(2.0, 1.0 + 1.0 / q)  # 2 at q = inf; inf where it overflows
    lo, L = inst.start, inst.length

    fns = _form_ratios(form, inst)
    disc = _Search(fns, L, budget, seed)
    ratio = _cont_ratio(form, inst)  # its own move evaluator
    cont = _Search(Ratios(ratio, screen=lambda: ratio, top=fns.top and _image(fns.top)),
                   2 * L, budget, seed)
    for side in (disc, cont):
        side.run("vertex" if math.isinf(inst.p) else "auto",
                 vertex_exact(form, inst.exponents))
    # Cross-seed each side with the other side's witness, then map a new
    # discrete witness back.
    cont.consider(_image(disc.witness()))
    disc.consider(_masses(cont.witness(), 0.5))
    cont.consider(_image(disc.witness()))
    C_disc, C_cont = disc.best, cont.best

    if math.isinf(C_disc) or math.isinf(C_cont):
        ok = math.isinf(C_disc) and math.isinf(C_cont)
        slack = 0.0 if ok else INF
    else:
        # Each guard makes its quotient positive over a finite denominator.
        viol_low = quotient(C_cont, C_disc) - 1.0 if C_cont > C_disc else 0.0
        high = bound * C_cont  # NaN at bound = inf, C_cont = 0: the guard fails
        viol_high = quotient(C_disc, high) - 1.0 if C_disc > high else 0.0
        slack = max(viol_low, viol_high)
        ok = slack <= 0.02
    return BridgeReport(form=form, C_discrete=C_disc, C_continuous=C_cont,
                        factor_bound=bound, factor_ok=ok, slack=slack,
                        discrete_witness=TestSequence(lo, tuple(disc.witness())),
                        continuous_witness=tuple(cont.witness()))


# ---------------------------------------------------------------------------
# Dyadic two-block decompositions.

@dataclass(frozen=True)
class LemmaDecomposition:
    which: str
    lhs: float
    block_part: float
    cross_part: float
    ratio: float


def _u_at(inst: Instance, x: float, t: float, r: float) -> float:
    i, n = math.ceil(x), math.ceil(t)  # the unit cells (i-1, i] and (n-1, n]
    if i < inst.start or n > inst.stop or n < inst.start or i > n:
        return 0.0
    return ext_pow(inst.kernel.eval(i, n), r)


def _block(inst: Instance, f: StepFunction, a: float, b: float, r: float,
           sup: bool) -> float:
    """Integral over y in (a, b] of U(y, b)^r f(y), or with sup the esssup
    over y in (a, b] of U(y, b)^r * integral of f over (a, y]."""
    total = 0.0
    acc = 0.0
    for right, mass in f.pieces(a, b):
        u = _u_at(inst, right, b, r)
        if sup:
            acc += mass
            total = max(total, ext_mul(u, acc))
        else:
            total += ext_mul(u, mass)
    return total


def lemma_decompose(which: str, inst: Instance, f: StepFunction) -> LemmaDecomposition:
    """Dyadic two-block split of a continuous left-hand side.

    L1 splits the supremal kernel norm; L2 the iterated-integral norm
    with kernel power p; L3 the supremal norm with kernel power p.
    Reports lhs, the block and cross sums over the dyadic covering of w,
    and lhs / (block + cross), which is 1 when both are 0 (an identically
    zero f) or both are inf.
    """
    p, q = inst.p, inst.q
    if which not in ("L1", "L2", "L3"):
        raise ValueError(f"unknown decomposition: {which}")
    if which in ("L2", "L3") and (p < 1 or math.isinf(p)):
        raise ValueError("L2/L3 need 1 <= p < inf")
    if math.isinf(q):
        raise ValueError("the decompositions need finite q")
    wstep = StepFunction(inst.start, inst.w.values)
    cover = dyadic_covering(wstep)

    if f.start != inst.start or len(f.values) != inst.length:
        raise ValueError("test function must share the window")
    r, e, outer = (1.0, q, 1.0 / q) if which == "L1" else (p, q / p, p / q)
    sup = which != "L2"
    lhs = _cell_lhs(inst.w.values, _columns(inst, r), 1.0, e, outer, sup)(f.values)

    block = 0.0
    cross = 0.0
    for k in range(cover.N, cover.top + 1):
        xk = cover.index(k)
        xprev = cover.index(k - 1)
        mass = 2.0 ** (-k)
        block += mass * ext_pow(_block(inst, f, xprev, xk, r, sup), e)
        if not math.isinf(xprev):
            head = f.cum(xprev)
            cross += mass * ext_mul(_u_at(inst, xprev, xk, q),
                                    ext_pow(head, e))
    block = ext_pow(block, outer)
    cross = ext_pow(cross, outer)
    return LemmaDecomposition(which=which, lhs=lhs, block_part=block,
                              cross_part=cross,
                              ratio=decomposition_ratio(lhs, block + cross))
