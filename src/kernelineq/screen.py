"""Screened ascent moves: reject a one-coordinate move in O(L) where a
rigorous upper bound on its exact ratio is at most the current one.

A linear record (id transform, sum reduction) at finite p and q, searched
without an `a_pow` substitution on finite kernel lines and weights, has
the exact search ratio (`oracle._form_ratios`) of a vector x

    z = x^p (inner power) or x,   s_n = sum_i K_in z_i,
    lhs = (sum_n w_n (s_n^(1/p))^q)^(1/q)   (no 1/p root without power),
    b = x^p,   R = sum_i vv_i b_i,   rhs = R^(1/p),   ratio = lhs / rhs,

where line n of the record holds the K_in (forward: i <= n; else i >= n)
and every sum runs left to right from 0.0.  The ascent moves one
coordinate at a time, x -> y with y_j = max(x_j, 1e-12) f.  Only z_j and
b_j change, so with d = z'_j - z_j and d_b = b'_j - b_j

    s'_n = s_n + K_jn d,   R' = R + vv_j d_b,

and `Screen.rejects` estimates both in O(L) from the s_n and R that the
exact evaluation of x computed (`state`), runs the estimate through the
exact path's own root, outer norm and right-hand root, and rejects the
move when est (1 + 2 (K + 1) u) <= cur for the count K below.  A rejected
move is one whose exact ratio is at most cur, so it changes neither the
current point nor the best one; it still counts as an evaluation.  Every
other move goes to the exact evaluation, which alone decides.  The K_jn
of coordinate j come from the search's view of the kernel by coordinate
(`oracle._coordinates`: rows from `kernels.rows_of` for a forward
record, the stored columns for a backward one); the screen transposes
nothing itself.

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
from typing import Callable, List, Optional, Sequence, Tuple

from .numerics import ext_pow

LIMIT = 1000.0     # every nonzero value lies in [2^-LIMIT, 2^LIMIT]
TINY = 2.0 ** -LIMIT
HUGE = 2.0 ** LIMIT
PRODUCT_FLOOR = 2.0 ** -1020  # a computed product above it did not underflow
MAX_COUNT = 2 ** 40            # K u stays far below 1/4
ULP1 = 2.0 ** -52              # 2u

State = Tuple[List[float], List[float], List[float], float]


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


class Screen:
    """The move screen of one linear record on one instance (see the
    module docstring), the ascent's move evaluator for it (see
    `oracle.Ratios`); `oracle._form_ratios` builds it."""

    def __init__(self, power: bool, forward: bool, coords: List[List[float]],
                 w: Sequence[float], vv: Sequence[float], p: float, q: float,
                 finish: Callable[[List[float]], float]):
        L = len(coords)
        self.power, self.forward, self.finish = power, forward, finish
        self.p, self.inv_p, self.vv, self.coord = p, 1.0 / p, vv, coords
        k_span = _span(x for line in coords for x in line)
        self.k_min = k_span[0]
        self.size = max(L, 2)
        n = self.size
        c_e, c_p = _count(1.0 / p) if power else _count(1.0), _count(self.inv_p)
        a = 4 * power + _count(1.0 / q) * (n + 2) + 2
        self.c_e, self.c_p, self.base = c_e, c_p, 8 + 3 * a + c_e * n + 2 * c_p * n
        w_lo, w_hi = _log2(_span(w))
        root_p = (self.inv_p, -1.0, 1.0)
        outer = ((q, -1.0, 1.0), (1.0, w_lo - 1.0, w_hi + math.log2(L) + 1.0),
                 (1.0 / q, -1.0, 1.0))
        lhs = _limits(_log2(k_span), L, ((root_p,) if power else ()) + outer)
        rhs = _limits(_log2(_span(vv)), L, (root_p,))
        if power:  # z and b are one vector
            lhs = rhs = (max(lhs[0], rhs[0]), min(lhs[1], rhs[1]))
        (self.z_lo, self.z_hi), (self.b_lo, self.b_hi) = lhs, rhs

    def state(self, out: list) -> Optional[State]:
        """The screen's state at a point from what its exact evaluation
        kept (z, the s_n, b, R); None where an entry leaves its range."""
        z, s, b, total = out
        if _within(z, self.z_lo, self.z_hi) and _within(b, self.b_lo, self.b_hi):
            return z, s, b, total
        return None

    def move(self, st: State, j: int, y: List[float], cur: float, out: list,
             ratio: Callable[[List[float], list], Optional[float]]) -> Optional[float]:
        """None where `rejects` holds for coordinate j of y, else ratio(y, out)."""
        return None if self.rejects(st, j, y[j], cur) else ratio(y, out)

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
        provably at most cur."""
        z, s, b, total = st
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
        if self.forward:
            e = s[:j] + [t + k_jn * d for t, k_jn in zip(s[j:], self.coord[j])]
        else:
            e = [t + k_jn * d for t, k_jn in zip(s, self.coord[j])] + s[j + 1:]
        est = self.finish(e) / ext_pow(r_est, self.inv_p)
        return TINY <= est <= HUGE and est * (1.0 + (count + 1) * ULP1) <= cur
