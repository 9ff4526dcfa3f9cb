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

At finite q every continuous left-hand side, the iterated integral
(GOP_DUAL, L2, calA_4) or the supremum (SUP_ITER, L1, L3), is one sweep
over the cells, `_sweep`, bound once per weights, kernel columns,
exponent, piece length and kind: on the half pieces of the continuous
ratio of `bridge_check` (`_ContRatio`), and on unit pieces for calA_4 and
`lemma_decompose` (`_cell_lhs`).  It writes each piece's closed form out
once, with the rules of `_int_pow_linear` and `_int_pow_max` (zero
slopes, infinite values and overflows included), which stay as the
per-piece reference.  A full evaluation scans its products once for the
multiplication `numerics.mul_for` gives (ext_mul where a factor is
infinite, so that 0 * inf = 0 still holds).  The ascent's moves change
one piece, so the continuous ratio, its own move evaluator
(`oracle.Ratios.moves`), resumes the sweep at the moved cell, with plain
products and no scan, bit for bit the full evaluation.
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
from .numerics import (INF, conjugate, ext, ext_mul, ext_muls, ext_pow, mul_for,
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


def _masses(g: Sequence[float]) -> List[float]:
    """Per window cell, the mass of the step function with values g on
    half pieces."""
    return [0.5 * x + 0.5 * y for x, y in zip(g[::2], g[1::2])]


def _image(a: Sequence[float]) -> List[float]:
    """The full-cell step extension of a: a_n on both halves of cell n."""
    return [x for t in a for x in (t, t)]


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


def _sweep(w: Sequence[float], cols: List[List[float]], cols_finite: bool, e: float,
           h: float, sup: bool) -> Callable[..., List[float]]:
    """sweep(g, masses, c, totals, mul=None): the running totals of a
    left-hand side at the step function f with the values g on pieces of
    length h (1/2 or 1) and the cell masses `masses`: the total before
    each cell with w_n > 0, then the last one (early where a total reaches
    inf), resumed at cell c from the running totals of a point that
    differs from g only on cells c and above ([0.0] from cell 0).  mul is
    the products' multiplication, `numerics.mul_for`'s where None.

    The total is the sum over those cells, in ascending n, of w_n times
    the integral over cell n of the e-th power of the inner value,
    int_{-inf}^t U(y,t)^r f or with sup esssup_{y<=t} U(y,t)^r F(y), F
    the primitive of f; w is the window values of w, and cols and
    cols_finite are the view `Kernel.powered(r)`: the kernel's columns
    raised to r and whether every entry is finite (a power can overflow
    to inf), which is not scanned again.  The cells and their pieces are
    bound here, once.

    On a piece the inner value is x + b s, 0 <= s <= h, with b the
    diagonal entry U(n, n) times the piece's value and x the column head
    times the masses at the cell's first piece; with sup it is the larger
    of the cell's peak (the column head times F at the right edges) and
    a + b s, a = U(n, n) F.  Each piece's integral is written out once,
    with the operations of `_int_pow_linear` and `_int_pow_max`, so that
    its float is theirs: x^e h at a zero slope (0 at x = 0), peak^e h
    where a + b s stays below the peak, else peak^e times the length
    before the crossing plus ((x + b l)^(e+1) - x^(e+1)) / (b (e+1)) over
    the length l after it; an infinite peak and a power that is inf or
    overflows give inf.  The integral's (x + b h)^(e+1) is the next
    piece's x^(e+1), and the supremum takes peak^e at most once per cell.
    The head is summed again in every cell: partial sums kept per cell
    would have to be rebuilt on every accepted move, which at an ascent's
    window lengths costs more than they save.
    """
    cells = _cells(w, cols)
    firsts = _firsts(cells, len(cols))
    k, e1 = round(1.0 / h), e + 1.0
    # Each cell also with the indices in g of its pieces.
    cells = [(n, wn, head, un, tuple(range(k * n, k * n + k)))
             for n, wn, head, un in cells]

    def sweep(g: Sequence[float], masses: Sequence[float], c: int, totals: List[float],
              mul: Optional[Callable[[float, float], float]] = None) -> List[float]:
        t = firsts[c]
        total, keep = totals[t], totals[:t]
        # The integral's column head multiplies the masses, the supremum's F
        # at the right edges (cum[n] = F at the right edge of cell n-1).
        heads = masses
        if sup:
            cum = list(itertools.accumulate(masses, initial=0.0))
            heads = cum[1:]
        if mul is None:
            mul = mul_for(heads, rest_finite=cols_finite)
        last, last_e1 = -1.0, 0.0  # the last x + b l and its power e + 1
        length, pre = h, 0.0  # the integral's; the supremum sets them per piece
        for n, wn, head, un, js in cells[t:]:
            keep.append(total)
            if sup:
                # sup0's value: no product of these is -0.0 or NaN.
                peak = max(map(mul, head, heads), default=0.0)
                F, peak_e = cum[n], None
            else:
                x = sum(map(mul, head, heads))
            acc = 0.0
            for j in js:
                val = g[j]
                b = mul(un, val)
                if sup:
                    a = mul(un, F)
                    F += val * h
                    if a >= peak:
                        x, length, pre = a, h, 0.0
                    else:
                        if peak_e is None:
                            try:
                                peak_e = peak ** e
                            except OverflowError:
                                peak_e = INF
                        # Where a + b s crosses the peak; it never does at a
                        # zero slope or an infinite peak.
                        s = (peak - a) / b if b and peak < INF else h
                        if s >= h:
                            acc += peak_e * h
                            continue
                        x, length, pre = peak, h - s, peak_e * s
                try:
                    if b:
                        top = x + b * length
                        hi = top ** e1
                        if hi < INF:
                            piece = (hi - (last_e1 if x == last else x ** e1)) / (b * e1)
                            x = last = top
                            last_e1 = hi
                        else:
                            piece = INF  # the integral's x stays: its cell is inf now
                    else:
                        piece = x ** e * length
                except OverflowError:
                    piece = INF
                acc += pre + piece
            total += wn * acc  # wn > 0, so this is ext_mul
            if total == INF:
                break
        keep.append(total)
        return keep
    return sweep


def _cell_lhs(w: Sequence[float], view: Tuple[List[List[float]], bool], e: float,
              outer: float, sup: bool) -> Callable[[Sequence[float]], float]:
    """g -> (sum over n of w_n * integral over cell n of
    (int_{-inf}^t U(y,t)^r f)^e)^outer, or with sup of
    (esssup_{y<=t} U(y,t)^r F(y))^e, F the primitive of f: `_sweep` on
    unit pieces of the view `Kernel.powered(r)`, where f has the value
    g[n] on cell n."""
    sweep = _sweep(w, *view, e, 1.0, sup)
    return lambda g: ext_pow(sweep(g, g, 0, [0.0])[-1], outer)


class _ContRatio:
    """lhs(f) / rhs(f) of the continuous form, as a function of the values g
    of the step function f on the half-unit pieces of the window, and the
    evaluator of the ascent's one-piece moves (see `oracle.Ratios`).

    At finite q the left-hand side is the last running total of `_sweep`
    on half pieces, the one sweep that calA_4 and `lemma_decompose` run on
    unit pieces.  A point's state (`state`, which gives the point's ratio
    with it) keeps its cell masses, the running totals and the
    right-hand side's terms h g_j^p v_j, formed with the operations of a
    full evaluation.  A move of piece j changes
    the mass of cell j // 2 only, so from that state the sweep resumes at
    that cell, and the right-hand side adds the terms again with term j
    replaced.  Both add the same floats in the same order as the full
    evaluation, so a move's ratio is the full evaluation's bit for bit.
    A state is kept only where every product is a plain one
    (`numerics.mul_for`: finite columns, weights, masses with a finite
    sum, and terms) and the left-hand side is finite, at finite p and q; a
    move from anywhere else, or to a piece whose mass or term is not
    finite, falls back to the full evaluation, the ratio itself.
    """

    def __init__(self, form: str, inst: Instance):
        if form not in ("GOP_DUAL", "SUP_ITER"):
            raise ValueError(f"bridge supports GOP_DUAL and SUP_ITER, not {form}")
        p, q = inst.p, inst.q
        self.n_pieces = 2 * inst.length
        self.vv = _image(inst.v.values)
        self.rhs = _norm(self.vv, p, 0.5)
        self.p, self.inv_p = p, 1.0 / p
        # At q = inf the left-hand side is the oracle's evaluator of the cell masses.
        self.disc = _evaluator(form, inst) if math.isinf(q) else None
        self.resumes = False
        if self.disc is None:
            cols, cols_finite = inst.kernel.powered(1.0)
            self.inv_q = 1.0 / q
            self._sweep = _sweep(inst.w.values, cols, cols_finite, q, 0.5,
                                 form == "SUP_ITER")
            self.resumes = math.isfinite(p) and cols_finite

    def __call__(self, g: Sequence[float]) -> Optional[float]:
        if len(g) != self.n_pieces:
            raise ValueError("half-grid vector must have 2 * window length entries")
        if not all(map((0.0).__le__, g)):
            for x in g:
                ext(x)  # raises the entry's validation error
        masses = _masses(g)
        if self.disc is not None:
            return quotient(self.disc(masses), self.rhs(g))
        totals = self._sweep(g, masses, 0, [0.0])
        return quotient(ext_pow(totals[-1], self.inv_q), self.rhs(g))

    def state(self, g: Sequence[float]) -> Tuple[Optional[float], Optional[tuple]]:
        """The ratio at g and g's state: its masses, running totals and
        right-hand terms (`_norm`'s h g^p times v), formed as a full
        evaluation forms them; (ratio(g), None) where its moves take the
        full ratio."""
        if not self.resumes:
            return self(g), None
        masses = _masses(g)
        totals = self._sweep(g, masses, 0, [0.0])
        terms = list(map(operator.mul, [x * 0.5 for x in pow_for(self.p)(g)], self.vv))
        lhs, total = ext_pow(totals[-1], self.inv_q), sum(terms)
        if not (lhs < INF and math.isfinite(sum(masses)) and math.isfinite(total)):
            return self(g), None
        return quotient(lhs, ext_pow(total, self.inv_p)), (masses, totals, terms)

    def move(self, st: tuple, j: int, y: List[float]
             ) -> Tuple[Optional[float], Optional[tuple]]:
        """The ratio at y, which moves piece j of the point of st, and y's
        state; (ratio(y), None) where the move leaves the plain products."""
        masses, totals, terms = st
        c = j // 2
        masses, terms = list(masses), list(terms)
        masses[c] = 0.5 * y[2 * c] + 0.5 * y[2 * c + 1]  # as `_masses` forms it
        terms[j] = ext_pow(y[j], self.p) * 0.5 * self.vv[j]  # as `_norm` forms it
        total = sum(terms)
        if not (math.isfinite(sum(masses)) and math.isfinite(total)):
            return self(y), None
        keep = self._sweep(y, masses, c, totals, operator.mul)
        lhs = ext_pow(keep[-1], self.inv_q)
        return (quotient(lhs, ext_pow(total, self.inv_p)),
                (masses, keep, terms) if lhs < INF else None)


# ---------------------------------------------------------------------------
# Continuous characterizing constants on step data.

def _tail_parts(inst: Instance) -> Tuple[List[float], List[float]]:
    """Per cell n: strict tail sum of U(n,m)^q w_m over m > n, and U(n,n)^q w_n."""
    q = inst.q
    strict = _uq_tails(inst, q, True)
    own = list(map(ext_mul, [col[-1] for col in inst.kernel.powered(q)[0]],
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
        pc = conjugate(p)
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
        return _at_top(_cell_lhs(w, inst.kernel.powered(1.0), q, 1.0 / q, False),
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
                w, inst.kernel.powered()[0], sig_heads, sig_terms, lins):
            K = ext_mul(wn, ext_pow(max(col), r))
            if K == 0.0:
                continue
            if p == 1.0:
                cell = ext_mul(ext_mul(K, ext_pow(max(sig_A, sig_a), E)),
                               _int_pow_linear(lin_a, lin_b, E, 1.0))
            else:
                cell = _quad_cell(K, lin_a, lin_b, E, sig_A, sig_a, conjugate(p))
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
    The cross-seeding takes the discrete side one evaluation past the
    budget and the continuous side two.
    """
    lo, L = inst.start, inst.length
    if inst.p < 1:
        raise ValueError("the bridge needs 1 <= p <= inf")
    if budget < 2 * L:
        raise ValueError("budget must cover at least one pass over the "
                         f"2L = {2 * L} half pieces of the continuous side")
    q = inst.q
    bound = ext_pow(2.0, 1.0 + 1.0 / q)  # 2 at q = inf; inf where it overflows

    fns = _form_ratios(form, inst)
    disc = _Search(fns, L, budget, seed)
    ratio = _ContRatio(form, inst)  # its own move evaluator
    cont = _Search(Ratios(ratio, moves=ratio, top=fns.top and _image(fns.top)),
                   2 * L, budget, seed)
    for side in (disc, cont):
        side.run("vertex" if math.isinf(inst.p) else "auto",
                 vertex_exact(form, inst.exponents))
    # Cross-seed each side with the other side's witness, then map a new
    # discrete witness back.
    cont.consider(_image(disc.witness()))
    disc.consider(_masses(cont.witness()))
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
    lhs = _cell_lhs(inst.w.values, inst.kernel.powered(r), e, outer, sup)(f.values)

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
