"""Resumed ascent moves, bit for bit: a forward record's exact move
resumes the current point's evaluation at the moved coordinate.  The
ascent's move evaluator (`oracle.Ratios.moves`) of a forward record
searched at finite p and q, on finite kernel lines and weights, built
with the search's ratio, is `Moves` where the record has no diagonal
(`oracle._diagonal`) and `RunningMoves` where it has one.

The resumed move.  A forward record's exact ratio (`oracle._form_ratios`)
of a vector x takes a = x, its powers a^p where the record has inner
power, the transform t (a or a^p, or its cumulative sum or max), the
inner terms s_n = reduce over i <= n of K(i, n) t_i (a sum from 0.0 or
builtin max), the outer sum of w_n (s_n^(1/p))^q (no root without
power) and the right-hand sum of vv_i a_i^p, each left to right.  A move
of coordinate j leaves t_i for i < j as it is, so s_n for n < j do not
move: it keeps the outer and right-hand prefix sums up to j, which hold
them, and re-sums each line n >= j from its frontier P_n, the reduction
of its terms i < j: the left-to-right partial sum, or the running max
from -inf (below every product, so that the first of equal terms is
kept, as max keeps it).
The state carries the frontier [j, P].  A move at j leaves it valid,
since t_i for i < j does not move, and hands it on to the moved point;
as the sweep moves up it advances one term per coordinate (the row of
coordinate jf, from the kernel's rows, `kernels.Kernel.rows`, derived
once per kernel and exponent and shared with the search's view by
coordinate), and it restarts from its origin when j drops.  The move
re-accumulates t from t_(j-1) under a sum or max transform, forms the
moved entry's power as the full path forms it (`numerics.ext_pow` is
`pow_for`'s rule per entry), and resumes the outer and right-hand sums
from their prefixes at j.  Every value is the full evaluation's own
float, formed by the same operations in the same order (builtin sum
adds left to right below Python 3.12, see `kernelineq.numerics`), so a
move's ratio and the state it hands on are the full evaluation's bit
for bit.

The products memo.  Under the id transform t is a (or a^p) itself, so a
move of j changes t_j alone: every term K(i, n) t_i, i > j, of a line
n >= j is already a product of the point it moves from.  `Moves` holds
one memo of them, built on its first state: the products by line n and
the t_i each column i was formed with.  A move first checks the columns
after j against its point's t and forms again only those formed with
another value, O(L - i) each, so a state of any age, and any
interleaving of ascents on one `Moves`, reads its own point's products.
Line n >= j is then its frontier, plus the head K(j, n) t_j, plus the
memo's products i > j, left to right (for a max the first largest of
those, as builtin max keeps it): the full line's terms in its order.  An
accepted move leaves one column to form again, a rejected one none.
Under a sum or max transform a move changes every t_i from j on, so
those lines are reduced again from the kernel and no memo is built;
every forward record with such a transform reduces by max.  The
memo is one more triangle of L (L + 1) / 2 floats while an ascent runs;
a search that runs no ascent calls no `state` and builds none.

A point's ratio and state (`Moves.state`) are its move at coordinate 0
from the empty prefix: b = x^p, outer and right-hand prefixes [0.0] and
the frontier at its origin, so the resumed sums are formed in one place
and a seed is evaluated once.
A state is kept only where every product is a plain one
(`numerics.mul_for`: a finite t, a^p and outer sum); a move to a value
that is not finite (an overflowing power or cumulative sum, or an outer
sum that overflows) is left to the full ratio, which keeps the
extended-real rules, and hands on no state.

The running move.  On a diagonal d (a kernel constant along rows) the
full ratio is one running reduction (`oracle._running`): t_n is a_n
(a_n^p where the record has inner power), under a sum transform
t_(n-1) + a_n and under a max the first largest of the two; s_n is
s_(n-1) + d_n t_n from the int 0 under a sum reduction, the first
largest of the two under a max; and the outer and right-hand sums add
w_n (s_n^(1/p))^q (no root without power) and vv_n b_n.
`RunningMoves` keeps them all by n, and a move at j keeps those below j
and runs one Python loop over n >= j from t_(j-1), s_(j-1) and the sums
before j: O(L - j), against O(L (L - j)) for the re-summed lines of
`Moves`, and one pass where the full ratio makes about ten C-level
ones.  Its floats are the full evaluation's, in its order: bit for bit.
A point's ratio and state are its move at 0 from the origin, as in
`Moves`.  A t that is not finite (a cumulative sum that overflows), an
outer sum that is not (an overflowing product, or inf against a zero
w) or an outer power that raises `OverflowError` hands the move to the
full ratio with no state.  The evaluator zips d, w and vv on its first
state, so a search that runs no ascent builds nothing.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence, Tuple

from .numerics import INF, ext_pow, finite, pow_for, quotient

if TYPE_CHECKING:
    from .oracle import Form


class State(NamedTuple):
    """A point's state, as its exact evaluation forms it: t (z), a^p (b),
    the prefix sums of its outer and right-hand sums (L + 1 each, from
    0.0), and the frontier [j, P]."""

    z: List[float]
    b: List[float]
    outer: List[float]
    rhs: List[float]
    front: list


class Moves:
    """The ascent's resumed exact moves of one forward record on one
    instance (see `oracle.Ratios` and the module docstring);
    `oracle._form_ratios` builds it with the search's ratio at finite p
    and q, on finite kernel lines, w and vv, where the record has no
    diagonal (`RunningMoves` takes the records with one), and every
    ascent on that search's ratios reads it: it holds
    one memo of products, checked against the point of every move.  rows
    are the rows of the lines, to be read and never changed; ratio is the
    full ratio, which takes what a move leaves to it."""

    def __init__(self, f: "Form", lines: List[List[float]], rows: List[List[float]],
                 w: Sequence[float], vv: Sequence[float], p: float, q: float,
                 ratio: Callable[[List[float]], Optional[float]]):
        self.ratio = ratio
        self.power = f.power
        self.p, self.inv_p, self.inv_q, self.w, self.vv = p, 1.0 / p, 1.0 / q, w, vv
        self.pow_p, self.pow_inv_p, self.pow_q = pow_for(p), pow_for(1.0 / p), pow_for(q)
        self.lines, self.rows = lines, rows
        self.summing = f.reduce == "sum"
        self.cumulative = {"id": None, "sum": add, "max": max}[f.transform]
        # A sum resumes from 0.0, as builtin sum starts; a max from
        # -inf, below every product, so that its first one is kept.  A
        # tuple: a move rebinds its state's frontier and never writes into it.
        self.origin = (0.0 if f.reduce == "sum" else -INF,) * len(rows)
        # Under the id transform the memo: the products K(i, n) t_i by
        # line n and the t_i each column i was formed with (None: not
        # yet), built on the first state.  None until then, and under a
        # sum or max transform.
        self.memo: Optional[Tuple[List[List[float]], List[Optional[float]]]] = None

    def _refresh(self, i: int, ti: float) -> None:
        """Forms column i of the memo with t_i = ti: K(i, n) ti on every
        line n >= i."""
        pl, ct = self.memo
        ct[i] = ti
        for pn, k in zip(pl[i:], self.rows[i]):
            pn[i] = k * ti

    def _products(self, t: List[float], j: int) -> List[List[float]]:
        """The memo's lines with every column from j on formed with t's
        entry: a column formed with another value is formed again."""
        pl, ct = self.memo
        if ct[j:] != t[j:]:
            for i in range(j, len(t)):
                if ct[i] != t[i]:
                    self._refresh(i, t[i])
        return pl

    def _outer(self, s: List[float]) -> List[float]:
        """The q-th powers of the roots of inner terms, as the exact path's
        outer sum takes them."""
        return self.pow_q(self.pow_inv_p(s) if self.power else s)

    def state(self, x: List[float]) -> Tuple[Optional[float], Optional[State]]:
        """The ratio at x and x's state: its move at coordinate 0 from the
        empty prefix; (ratio(x), None) where its moves take the full ratio
        (a non-finite x^p, t or outer sum)."""
        b = self.pow_p(x)
        if not finite(b):
            return self.ratio(x), None
        if self.memo is None and self.cumulative is None:
            self.memo = [[0.0] * (n + 1) for n in range(len(x))], [None] * len(x)
        return self.move(State([], b, [0.0], [0.0], [0, self.origin]), 0, x)

    def move(self, st: State, j: int, y: List[float]
             ) -> Tuple[Optional[float], Optional[State]]:
        """The ratio at y, which moves coordinate j of the point of st, and
        y's state: resumed from st, or (ratio(y), None) where a value the
        resumed move forms is not finite."""
        yj = y[j]
        bj = ext_pow(yj, self.p) if 0.0 <= yj < INF else INF
        if bj == INF:
            return self.ratio(y), None
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
            return self.ratio(y), None
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
        if cumulative is None:
            # Line n >= j: its frontier, its head K(j, n) t_j and the memo's
            # products K(i, n) t_i, i > j, the full line's terms in order.
            j1, pl = j + 1, self._products(t, j + 1)[j:]
            heads = map(mul, self.rows[j], repeat(t[j]))
            s = ([sum(pn[j1:], p_n + h) for pn, p_n, h in zip(pl, P, heads)] if summing
                 else [max(p_n, h, *pn[j1:]) for pn, p_n, h in zip(pl, P, heads)])
        else:  # a sum or max transform, which every such record reduces by max
            tj = t[j:]
            s = [max(map(mul, line[j:], tj)) for line in self.lines[j:]]
            s = [k if k > m else m for m, k in zip(P, s)]
        outer = st.outer[:j]
        outer += accumulate(map(mul, self._outer(s), self.w[j:]), initial=st.outer[j])
        if not outer[-1] < INF:  # an outer power is inf (or the sum overflowed)
            return self.ratio(y), None
        rhs = st.rhs[:j]
        rhs += accumulate(map(mul, b[j:], self.vv[j:]), initial=st.rhs[j])
        return (quotient(ext_pow(outer[-1], self.inv_q), ext_pow(rhs[-1], self.inv_p)),
                State(t, b, outer, rhs, [j, P]))


class RunningState(NamedTuple):
    """A point's state on a diagonal: a^p (b), and its run: the origin,
    then for each n the transform t_n, the inner term s_n and the outer
    and right-hand sums through n."""

    b: List[float]
    run: List[Tuple[float, float, float, float]]


class RunningMoves:
    """The ascent's resumed exact moves of one forward record with a
    diagonal (see the module docstring); `oracle._form_ratios` builds it
    with the search's ratio at finite p and q, on a finite diagonal, w and
    vv.  diag is the record's `oracle._diagonal`, to be read and never
    changed; ratio is the full ratio, which takes what a move leaves to it."""

    def __init__(self, f: "Form", diag: List[float], w: Sequence[float],
                 vv: Sequence[float], p: float, q: float,
                 ratio: Callable[[List[float]], Optional[float]]):
        self.ratio, self.sides = ratio, (diag, w, vv)
        self.p, self.inv_p, self.q, self.inv_q = p, 1.0 / p, q, 1.0 / q
        self.power, self.summing = f.power, f.reduce == "sum"
        self.ident, self.adding = f.transform == "id", f.transform == "sum"
        # Before n = 0: t from -0.0 (-0.0 + a is a, bit for bit) or -inf
        # (below every a), s from the int 0 or -inf, both sums from 0.0.
        self.origin = (-0.0 if self.adding else -INF, 0 if self.summing else -INF,
                       0.0, 0.0)
        self.dwv: Optional[List[Tuple[float, float, float]]] = None  # built on the first state

    def state(self, x: List[float]) -> Tuple[Optional[float], Optional[RunningState]]:
        """The ratio at x and x's state: its move at coordinate 0 from the
        origin; (ratio(x), None) where x^p is not finite."""
        b = pow_for(self.p)(x)
        if not finite(b):
            return self.ratio(x), None
        if self.dwv is None:
            self.dwv = list(zip(*self.sides))
        return self.move(RunningState(b, [self.origin]), 0, x)

    def move(self, st: RunningState, j: int, y: List[float]
             ) -> Tuple[Optional[float], Optional[RunningState]]:
        """The ratio at y, which moves coordinate j of the point of st, and
        y's state: one pass over n >= j from the run through j - 1, or
        (ratio(y), None) where a value it forms is not finite."""
        yj = y[j]
        bj = ext_pow(yj, self.p) if 0.0 <= yj < INF else INF
        if bj == INF:
            return self.ratio(y), None
        b = list(st.b)
        b[j] = bj
        ident, adding, summing, power = self.ident, self.adding, self.summing, self.power
        inv_p, q = self.inv_p, self.q
        run = st.run[:j + 1]
        tn, sn, on, rn = run[-1]
        append = run.append
        try:
            for a, bn, (d, wn, vn) in zip(b[j:] if power else y[j:], b[j:], self.dwv[j:]):
                if ident:
                    tn = a
                elif adding:
                    tn += a
                elif a > tn:  # a max keeps its first largest term, as builtin max does
                    tn = a
                k = d * tn
                if summing:
                    sn += k
                elif k > sn:
                    sn = k
                on += wn * ((sn ** inv_p) ** q if power else sn ** q)
                rn += vn * bn
                append((tn, sn, on, rn))
        except OverflowError:  # an outer power
            return self.ratio(y), None
        # A cumulative t peaks at its end; an inf or NaN term leaves the outer sum so.
        if not (tn < INF and on < INF):
            return self.ratio(y), None
        return (quotient(ext_pow(on, self.inv_q), ext_pow(rn, inv_p)),
                RunningState(b, run))
