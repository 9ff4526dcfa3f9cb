"""Ascent moves at O(L) cost where they can be had, bit for bit: the
screen rejects a one-coordinate move where a rigorous upper bound on its
exact ratio is at most the current one, and a forward record's exact
move resumes the current point's evaluation at the moved coordinate.
`Moves` is the ascent's move evaluator (`oracle.Ratios.screen`) of a
record searched at finite p and q, without an `a_pow` substitution, on
finite kernel lines and weights: the screen of a linear record, the
resumed moves of a forward one (a linear forward record has both), so
that a backward record other than a linear one has none.

The resumed move.  A forward record's exact ratio (`oracle._form_ratios`)
of a vector x takes a = x, its powers a^p where the record has inner
power, the transform t (a or a^p, or its cumulative sum or max), the
inner terms s_n = reduce over i <= n of K(i, n) t_i (a sum from 0.0 or
builtin max), the outer sum of w_n (s_n^(1/p))^q (no root without
power) and the right-hand sum of vv_i a_i^p, each left to right.  A move
of coordinate j leaves t_i for i < j as it is, so it keeps s_n for n < j
and the outer and right-hand prefix sums up to j, and re-sums each line
n >= j from its frontier P_n, the reduction of its terms i < j: the
left-to-right partial sum, or the running max from -inf (below every
product, so that the first of equal terms is kept, as max keeps it).
The state carries the frontier [j, P].  A move at j leaves it valid,
since t_i for i < j does not move, and hands it on to the moved point;
as the sweep moves up it advances one term per coordinate (the row of
coordinate jf from `kernels.rows_of`), and it restarts from its origin
when j drops.  The move re-accumulates t from t_(j-1) under a sum or max
transform, forms the moved entry's power as the full path forms it
(`numerics.ext_pow` is `pow_for`'s rule per entry), and resumes the
outer and right-hand sums from their prefixes at j.  Every value is the
full evaluation's own float, formed by the same operations in the same
order (builtin sum adds left to right below Python 3.12, see
`kernelineq.numerics`), so a move's ratio and the state it hands on are
the full evaluation's bit for bit.  A state is kept only where every
product is a plain one (`numerics.mul_for`: a finite t, a^p and outer
power); a move to a value that is not finite (an overflowing power or
cumulative sum, or an outer sum that overflows) is left to the full
ratio, which keeps the extended-real rules.  A moved point's state is
built only when the ascent takes it.

The screen.  A linear record (id transform, sum reduction) has the exact
search ratio of a vector x

    z = x^p (inner power) or x,   s_n = sum_i K_in z_i,
    lhs = (sum_n w_n (s_n^(1/p))^q)^(1/q)   (no 1/p root without power),
    b = x^p,   R = sum_i vv_i b_i,   rhs = R^(1/p),   ratio = lhs / rhs,

where line n of the record holds the K_in (forward: i <= n; else i >= n)
and every sum runs left to right from 0.0.  The ascent moves one
coordinate at a time, x -> y with y_j = max(x_j, 1e-12) f.  Only z_j and
b_j change, so with d = z'_j - z_j and d_b = b'_j - b_j

    s'_n = s_n + K_jn d,   R' = R + vv_j d_b,

and `Moves.rejects` estimates both in O(L) from the s_n and R that the
exact evaluation of x computed (`state`), runs the estimate through the
exact path's own root, outer norm and right-hand root (a forward record's
outer sum from the point's prefix at j, where the lines the move enters
begin), and rejects the move when est (1 + 2 (K + 1) u) <= cur for the
count K below.  A rejected move is one whose exact ratio is at most cur,
so it changes neither the current point nor the best one; it still
counts as an evaluation.  Every other move goes to the exact evaluation,
resumed or full, which alone decides.  The K_jn of coordinate j come
from the search's view of the kernel by coordinate (`oracle._coordinates`:
rows from `kernels.rows_of` for a forward record, the stored columns for
a backward one); the screen transposes nothing itself.

The bound.  u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., ch. 3).  On normal-range
values each +, -, * and / is v (1 + delta) with |delta| <= u, and each
x ** r is within 2u (the platform pow is faithful, below one ulp).  The
model fails only on an underflow or an overflow, so the screen applies
only where every nonzero value either evaluation forms lies in
[2^-1000, 2^1000] (checked below).  Bounds used: (1 + gamma_j)(1 +
gamma_k) <= 1 + gamma_(j+k), (1 - gamma_j)(1 - gamma_k) >= 1 - gamma_(j+k),
1 / (1 - gamma_k) <= 1 + gamma_2k, and (1 +- gamma_k)^E lies within
1 +- gamma_(cE k) for an integer cE >= E > 0 (`_count`).

1. Inner terms.  A sum of m <= L nonnegative products is within
   (1 +- gamma_L) of its real value (Higham 3.1), so the exact path's s_n
   at x and at y are within (1 +- gamma_L) of the real sums over the same
   floats z and z'.  The estimate e_n = fl(s_n + fl(K_jn fl(z'_j - z_j)))
   has d's and the product's rounding (gamma_2) and one addition:
   - d >= 0: every term is nonnegative, so e_n is within
     (1 +- gamma_(L+1)) of s'_n.
   - d < 0: the error of s_n + K_jn d is at most gamma_L (s_n + K_jn |d|)
     <= 2 gamma_L s_n, since K_jn |d| <= K_jn z_j <= s_n.  The move scales
     the nonnegative term K_jn z_j of s_n by rho = z'_j / z_j, so the
     shifted term keeps at least rho of the old one, s'_n >= rho s_n (for
     a move by f in [1/4, 4], rho is about min(f, 1)^p).  So e_n is within
     (1 +- gamma_k) of s'_n, k = ceil(2L / rho) + 1, which `_shift`
     rounds up from the float quotient.
   R' and its estimate are the same with vv and b (count k_r).
2. The rest.  G(t) = (sum_n w_n (t_n^(1/p))^q)^(1/q), with the float
   exponents the exact path uses, is nondecreasing in each t_n and
   homogeneous of degree E = 1/p (1 without inner power).  The steps after
   the inner sums cost, through the later powers: the 1/p root (inner
   power only) (1 +- gamma_2)^(q/q), within 1 +- gamma_4; the q-th powers,
   the products with w and the outer sum (1 +- gamma_(L+2))^(1/q); the
   outer root 1 +- gamma_2.  So they stay within 1 +- gamma_A,
   A = 4 [power] + cQ (L + 2) + 2 with cQ = `_count(1/q)`, both for the
   exact path at y and for the estimate, which runs the same steps
   (`finish`).  So lhs(y) <= G(s') (1 + gamma_(cE L)) (1 + gamma_A)
   and lhs_est >= G(s') (1 - gamma_(cE k)) (1 - gamma_A).  Likewise
   rhs(y) >= R'^(1/p) (1 - gamma_(cP L + 2)) and
   rhs_est <= R'^(1/p) (1 + gamma_(cP k_r + 2)), with R_est > 0 so that
   R' > 0 and the exact path divides.
3. The quotients round once each: ratio(y) <= est (1 + gamma_K),
   K = 8 + 3A + cE (L + 2k) + cP (k_r + 2L).  For K u <= 1/4,
   c = 1 + 2 (K + 1) u is a float and fl(est c) >= est c (1 - u) >=
   est (1 + 2Ku) >= est (1 + gamma_K), so fl(est c) <= cur implies
   ratio(y) <= cur.  est lies in [2^-1000, 2^1000], so a ratio that
   underflows is below cur too.

The range check.  Every nonzero value of both evaluations is a product,
sum, power or root of the nonzero entries of the lines, w, vv, z and b.
Given the log2 ranges of the fixed ones, each stage's log2 range is an
affine function of z's (or b's) log2 range, with a slack of 1 per stage
for rounding and for the estimate's factor; `_limits` turns the bound of
+-1000 on every stage into bounds on the entries of z and b, checked once
per current point and once per moved entry.  Each nonzero product
K_jn d and vv_j d_b is checked on its own.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence, Tuple

from .kernels import rows_of
from .numerics import INF, ext_pow, finite, pow_for, quotient

if TYPE_CHECKING:
    from .oracle import Form

LIMIT = 1000.0     # every nonzero value lies in [2^-LIMIT, 2^LIMIT]
TINY = 2.0 ** -LIMIT
HUGE = 2.0 ** LIMIT
PRODUCT_FLOOR = 2.0 ** -1020  # a computed product above it did not underflow
MAX_COUNT = 2 ** 40            # K u stays far below 1/4
ULP1 = 2.0 ** -52              # 2u


def _count(e: float) -> int:
    """An integer at least the real exponent that a float e stands for,
    when e is a few roundings off it (1/p, 1/q and their products)."""
    return int(e) + 2


def _span(values) -> Tuple[float, float]:
    """The smallest and largest nonzero value; (1, 1) if none."""
    nz = [abs(x) for x in values if x]
    return (min(nz), max(nz)) if nz else (1.0, 1.0)


def _log2(span: Tuple[float, float]) -> Tuple[float, float]:
    return math.log2(span[0]), math.log2(span[1])


def _limits(fixed: Tuple[float, float], terms: int,
            steps: Sequence[Tuple[float, float, float]]) -> Tuple[float, float]:
    """The range [lo, hi] the nonzero entries of a vector must keep so that
    its products with fixed weights of log2 range `fixed`, their sums of
    at most `terms` terms, and each later stage (scale, add_lo, add_hi):
    lo' = scale lo + add_lo, hi' = scale hi + add_hi, stay within
    [2^-LIMIT, 2^LIMIT] in log2."""
    grow = math.log2(terms) + 1.0
    # The lower and upper end of each stage as slope * log2(entry) + offset.
    lo_a, lo_b, hi_a, hi_b = 1.0, fixed[0] - 1.0, 1.0, fixed[1] + grow
    x_lo, x_hi = -math.inf, math.inf
    for scale, add_lo, add_hi in ((1.0, 0.0, 0.0),) + tuple(steps):
        lo_a, lo_b = lo_a * scale, lo_b * scale + add_lo
        hi_a, hi_b = hi_a * scale, hi_b * scale + add_hi
        x_lo = max(x_lo, (-LIMIT - lo_b) / lo_a)
        x_hi = min(x_hi, (LIMIT - hi_b) / hi_a)
    return 2.0 ** min(x_lo, 1023.0), 2.0 ** min(x_hi, 1023.0)


def _within(xs: Sequence[float], lo: float, hi: float) -> bool:
    """Whether every nonzero entry of the nonnegative xs lies in [lo, hi]."""
    least = min(xs) or min(filter(None, xs), default=lo)
    return lo <= least and max(xs) <= hi


class State(NamedTuple):
    """A point's state, from its exact evaluation: z, the s_n, b and R
    (`Moves.rejects` reads these four); for a forward record also the
    prefix sums of its outer and right-hand sums (L + 1 each, from 0.0),
    the frontier [j, P] (`Moves.move`), and whether the screen applies."""

    z: List[float]
    s: List[float]
    b: List[float]
    total: float
    outer: Optional[List[float]] = None
    rhs: Optional[List[float]] = None
    front: Optional[list] = None
    screened: bool = True


class Moves:
    """The ascent's move evaluator of one record on one instance (see
    `oracle.Ratios` and the module docstring): the screen of a linear
    record, the resumed exact moves of a forward one; `oracle._form_ratios`
    builds it at finite p and q, without a_pow, on finite kernel lines,
    w and vv."""

    def __init__(self, f: "Form", lines: List[List[float]], coords: List[List[float]],
                 w: Sequence[float], vv: Sequence[float], p: float, q: float):
        L = len(coords)
        self.power, self.forward = f.power, f.forward
        self.screens = f.transform == "id" and f.reduce == "sum"
        self.p, self.inv_p, self.inv_q, self.w, self.vv = p, 1.0 / p, 1.0 / q, w, vv
        self.pow_inv_p, self.pow_q = pow_for(1.0 / p), pow_for(q)
        if self.forward:
            self.lines = lines
            self.rows = coords if f.transform == "id" else rows_of(lines)
            self.summing = f.reduce == "sum"
            self.cumulative = {"id": None, "sum": add, "max": max}[f.transform]
            # A sum resumes from 0.0, as builtin sum starts; a max from
            # -inf, below every product, so that its first one is kept.
            self.origin = [0.0 if f.reduce == "sum" else -INF] * L
        if not self.screens:
            return
        self.coord = coords
        k_span = _span(x for line in coords for x in line)
        self.k_min = k_span[0]
        self.size = max(L, 2)
        n = self.size
        c_e, c_p = _count(1.0 / p) if self.power else _count(1.0), _count(self.inv_p)
        a = 4 * self.power + _count(1.0 / q) * (n + 2) + 2
        self.c_e, self.c_p, self.base = c_e, c_p, 8 + 3 * a + c_e * n + 2 * c_p * n
        w_lo, w_hi = _log2(_span(w))
        root_p = (self.inv_p, -1.0, 1.0)
        outer = ((q, -1.0, 1.0), (1.0, w_lo - 1.0, w_hi + math.log2(L) + 1.0),
                 (1.0 / q, -1.0, 1.0))
        lhs = _limits(_log2(k_span), L, ((root_p,) if self.power else ()) + outer)
        rhs = _limits(_log2(_span(vv)), L, (root_p,))
        if self.power:  # z and b are one vector
            lhs = rhs = (max(lhs[0], rhs[0]), min(lhs[1], rhs[1]))
        (self.z_lo, self.z_hi), (self.b_lo, self.b_hi) = lhs, rhs

    def _in_range(self, z: List[float], b: List[float]) -> bool:
        """Whether the screen applies at a point with these z and b."""
        return _within(z, self.z_lo, self.z_hi) and _within(b, self.b_lo, self.b_hi)

    def _screened(self, st: State, j: int, z: List[float], b: List[float]) -> bool:
        """Whether the screen applies at the point with z and b, which moves
        coordinate j of the point of st: a linear record's z moves only
        there, so where it applied at st only the moved entries are read."""
        if not self.screens:
            return True
        if not st.screened:
            return self._in_range(z, b)
        return (not z[j] or self.z_lo <= z[j] <= self.z_hi) and (
            not b[j] or self.b_lo <= b[j] <= self.b_hi)

    def _outer(self, s: List[float]) -> List[float]:
        """The q-th powers of the roots of inner terms, as the exact path's
        outer sum takes them."""
        return self.pow_q(self.pow_inv_p(s) if self.power else s)

    def state(self, out: list) -> Optional[State]:
        """The state at a point from what its exact evaluation appended to
        out (z, the s_n, b, R), or the state a resumed move appended; None
        where the point's moves take the full ratio: a backward point out of
        the screen's range, a forward one with a non-finite z, b or outer
        power (its products would not all be plain ones)."""
        if len(out) == 1:  # a resumed move's: the state from st at coordinate j
            st, j, z, s, b, outer, rhs, P = out[0]
            return State(z, st.s[:j] + s, b, rhs[-1], outer, rhs, [j, P],
                         self._screened(st, j, z, b))
        z, s, b, total = out
        screened = not self.screens or self._in_range(z, b)
        if not self.forward:
            return State(z, s, b, total) if screened else None
        xr = self._outer(s)
        if not finite(z, b, xr):
            return None
        return State(z, s, b, total, list(accumulate(map(mul, xr, self.w), initial=0.0)),
                     list(accumulate(map(mul, b, self.vv), initial=0.0)),
                     [0, self.origin], screened)

    def move(self, st: State, j: int, y: List[float], cur: float, out: list,
             ratio: Callable[[List[float], list], Optional[float]]) -> Optional[float]:
        """None where `rejects` holds for coordinate j of y; else the ratio at
        y, resumed from st on a forward record (with its state appended to
        out), ratio(y, out) on a backward one or where a value the resumed
        move forms is not finite."""
        yj = y[j]
        if self.rejects(st, j, yj, cur):
            return None
        bj = ext_pow(yj, self.p) if self.forward and 0.0 <= yj < INF else INF
        if bj == INF:
            return ratio(y, out)
        b = list(st.b)
        b[j] = bj
        av = b if self.power else y  # a^p (the right-hand side's own) or a
        cumulative, summing = self.cumulative, self.summing
        if cumulative is None:
            t = av
        elif j:
            t = st.z[:j - 1]
            t += accumulate(av[j:], cumulative, initial=st.z[j - 1])
        else:
            t = list(accumulate(av, cumulative))
        if not t[-1] < INF:  # av is finite, and a cumulative t peaks at its end
            return ratio(y, out)
        # The frontier P_n = reduce over i < j of K(i, n) t_i, n >= j, from
        # the point of st: t_i is the same at y for every i < j.  A max
        # keeps its first largest term, as builtin max does.
        jf, P = st.front
        if jf > j:
            jf, P = 0, self.origin
        while jf < j:
            terms = map(mul, self.rows[jf][1:], repeat(st.z[jf]))
            P = (list(map(add, P[1:], terms)) if summing
                 else [k if k > m else m for m, k in zip(P[1:], terms)])
            jf += 1
        st.front[:] = j, P
        tj, lines = t[j:], self.lines[j:]
        if summing:
            s = [sum(map(mul, line[j:], tj), p_n) for line, p_n in zip(lines, P)]
        else:
            s = [max(map(mul, line[j:], tj)) for line in lines]
            s = [k if k > m else m for m, k in zip(P, s)]
        outer = st.outer[:j]
        outer += accumulate(map(mul, self._outer(s), self.w[j:]), initial=st.outer[j])
        if not outer[-1] < INF:  # an outer power is inf (or the sum overflowed)
            return ratio(y, out)
        rhs = st.rhs[:j]
        rhs += accumulate(map(mul, b[j:], self.vv[j:]), initial=st.rhs[j])
        out.append((st, j, t, s, b, outer, rhs, P))
        return quotient(ext_pow(outer[-1], self.inv_q), ext_pow(rhs[-1], self.inv_p))

    def _shift(self, d: float, new: float, old: float) -> Optional[int]:
        """The count k of an estimated sum moved by d = new - old; None
        where the shrinking factor rho is too small to bound (or 0)."""
        if d >= 0.0:
            return self.size + 1
        rho = new / old
        if not rho * MAX_COUNT > 2 * self.size:
            return None
        return int(2 * self.size / rho) + 3

    def rejects(self, st: State, j: int, yj: float, cur: float) -> bool:
        """Whether the exact ratio after setting coordinate j to yj is
        provably at most cur (never on a record the screen does not take)."""
        if not (self.screens and st.screened):
            return False
        z, s, b, total = st[:4]
        bj = ext_pow(yj, self.p)  # the exact path's own power of yj
        zj = bj if self.power else yj
        if not (self.z_lo <= zj <= self.z_hi and self.b_lo <= bj <= self.b_hi):
            return False
        d, d_b = zj - z[j], bj - b[j]
        k = self._shift(d, zj, z[j])
        k_r = k if self.power else self._shift(d_b, bj, b[j])
        if k is None or k_r is None or (d and self.k_min * abs(d) < PRODUCT_FLOOR):
            return False
        dv = self.vv[j] * d_b
        if dv and abs(dv) < PRODUCT_FLOOR:
            return False
        r_est = total + dv
        count = self.base + self.c_e * 2 * k + self.c_p * k_r
        if not (r_est > 0.0 and count < MAX_COUNT):
            return False
        # The outer sum of the estimate resumes from the point's prefix at j
        # (forward) or runs from 0.0 (backward), over the lines that moved.
        if self.forward:
            e = [t + k_jn * d for t, k_jn in zip(s[j:], self.coord[j])]
            lhs = sum(map(mul, self._outer(e), self.w[j:]), st.outer[j])
        else:
            e = [t + k_jn * d for t, k_jn in zip(s, self.coord[j])] + s[j + 1:]
            lhs = sum(map(mul, self._outer(e), self.w), 0.0)
        est = ext_pow(lhs, self.inv_q) / ext_pow(r_est, self.inv_p)
        return TINY <= est <= HUGE and est * (1.0 + (count + 1) * ULP1) <= cur
