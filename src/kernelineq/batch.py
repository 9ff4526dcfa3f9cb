"""Batches of search candidates on a grid, evaluated factored, bit for bit.

A batch is a grid (`Grid`): a base point and one or two grid
coordinates, each running over a list of values.  Its candidates are the
base point with those coordinates set, in `itertools.product` order
(`candidates`).  `lines_batch` is the batched twin of the oracle's form
evaluator (`oracle._lines_evaluator`) up to its outer sum, and
`ratio_batch` that of the right-hand side (`oracle._norm`) and of the
ratio: it takes both outer roots and the quotient.  `root` takes a
left-hand side's root alone.  The support-grid search batches a grid's
candidates; an equivalence suite batches a form's samples
(`oracle._sample_lhs`), every window entry a part whose one coordinate
is the sample index, so that each part runs over all the samples.

They evaluate the grid factored, as a tensor product is (de Boor,
"Efficient computer manipulation of tensor products", ACM TOMS 5, 1979).
Every quantity, from an entry of a or of its transform to an inner term
and each partial sum of the outer sum and of the right-hand side, is a
part (`Part`): the set of grid coordinates it depends on (bit k for
coordinate k) and its values, one float where it depends on none, one
per value of its coordinate, or one per candidate, first coordinate
major, in candidate order.

Each step is one list pass.  A line reads only the window entries the
grid reaches (a zero entry of the base point has no part and adds
nothing) and joins all but its last term into its reduction; one
comprehension then takes the last term, the inner root of a record with
inner power, the outer power, the weight and the running outer sum, or
sup (`_steps`).  Every step zips its parts at the width of its result
(`_aligned`): a part on none of the coordinates is repeated, one on the
second alone is cycled along the first, and one on the first alone has
each value repeated along the second by a C-level iterator, so no part is
copied into a list first.  Every other partial sum, or sup, is one
`_join`: a transform's, a line's reduction and the right-hand side's up
to its last term.  The outer sums start from +0.0, as builtin `sum`
does, so a line the grid does not reach is skipped and a sup needs no
clamp.  `ratio_batch` adds the right-hand side's last term and takes
both roots and the quotient in one pass.

Each candidate still takes each step of the scalar evaluation with plain
`*`, `+` and `max` and the same powers, in its own left-to-right order,
so each result is the scalar one bit for bit: a power `x ** r` differs
from `numerics.pow_for`'s only in the sign of a zero, which no sum or sup
from +0.0 shows, and x ** 1.0 is x, so a root 1/1 is not taken.  The
Python overhead of a step is paid once per part instead of once per
candidate.  `lines_batch` reads the evaluator's own lines: a backward
record's rows are the kernel's `kernels.Kernel.rows` view, derived once
per kernel and exponent and held for one kernel at a time, never per
batch.

They take only the all-finite path: the caller builds them only on
finite kernel lines and weights and hands them only grids of finite,
nonnegative values, which they do not check (the support-grid search's
grids and a suite's samples are such).  They return None where a part a
product reads, or a sum, is not finite, or where a power overflows
(`OverflowError`), so that the caller falls back to the per-candidate
evaluation and its extended-real rules.  On finite factors plain `*` is
ext_mul up to the sign of a zero product, which no sum from 0.0 and no
sup from +0.0 shows.
"""

from __future__ import annotations

import itertools
import math
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .instance import Instance
from .numerics import finite, pow_for, quotient

if TYPE_CHECKING:
    from .oracle import Form

Ratio = Callable[[Sequence[float]], Optional[float]]
# A part: the grid coordinates a quantity depends on (bit k for coordinate
# k) and its values over them, first coordinate major.
Part = Tuple[int, List[float]]
Parts = List[Optional[Part]]
# A batched function takes the parts of a grid and the length of its last
# coordinate's values (read only where it has two).
Values = Callable[[Parts, int], Optional[Part]]

ZERO: Part = (0, [0.0])


class Grid(NamedTuple):
    """The base point with coordinate coords[k] running over values[k]."""

    base: Sequence[float]
    coords: Tuple[int, ...]
    values: Tuple[Sequence[float], ...]


BatchRatio = Callable[[Grid], List[Optional[float]]]


def candidates(grid: Grid) -> Iterator[List[float]]:
    """The candidates of a grid, one list each, in product order."""
    for point in itertools.product(*grid.values):
        x = list(grid.base)
        for j, t in zip(grid.coords, point):
            x[j] = t
        yield x


def per_candidate(ratio: Ratio) -> BatchRatio:
    """The batch of a ratio without a batched form: one call per candidate."""
    return lambda grid: [ratio(x) for x in candidates(grid)]


def columns(grid: Grid) -> Parts:
    """The parts of a grid's coordinates, None where the base point is 0."""
    cols: Parts = [None if x == 0.0 else (0, [x]) for x in grid.base]
    for k, (j, vals) in enumerate(zip(grid.coords, grid.values)):
        cols[j] = (1 << k, list(vals))
    return cols


def _aligned(part: Part, deps: int, inner: int) -> Iterable[float]:
    """The values of a part at the width of the coordinates deps, which hold
    its own; inner is the length of the second coordinate's values."""
    own, xs = part
    if own == deps:
        return xs
    if own == 0:
        return itertools.repeat(xs[0])
    if own == 2:
        return itertools.cycle(xs)
    return itertools.chain.from_iterable(map(itertools.repeat, xs, itertools.repeat(inner)))


def _join(acc: Part, k: float, part: Part, total: bool, inner: int) -> Part:
    """Per candidate acc + k x (total) or the first largest of acc and k x,
    x the part's value: one partial sum, or sup, in one pass."""
    deps = acc[0] | part[0]
    pairs = zip(_aligned(acc, deps, inner), _aligned(part, deps, inner))
    if total:
        return deps, [a + k * x for a, x in pairs]
    return deps, [y if (y := k * x) > a else a for a, x in pairs]


def _steps(total: bool, inv_p: Optional[float], q: float):
    """A line's last step, per candidate, over s, a and x aligned at the
    width of the result: its last term k x joined to the reduction a of
    its other terms (a + k x, or the first largest of a and k x), the inner
    root (power inv_p, a record with inner power), the outer power q and
    weight w, added to the running outer sum s, or at q = inf its first
    largest with s."""
    if math.isinf(q):
        if inv_p is None and total:
            return lambda ss, aa, xx, k, w: [m if (m := w * (a + k * x)) > s else s
                                             for s, a, x in zip(ss, aa, xx)]
        if inv_p is None:
            return lambda ss, aa, xx, k, w: [
                m if (m := w * (y if (y := k * x) > a else a)) > s else s
                for s, a, x in zip(ss, aa, xx)]
        if total:
            return lambda ss, aa, xx, k, w: [
                m if (m := w * (a + k * x) ** inv_p) > s else s
                for s, a, x in zip(ss, aa, xx)]
        return lambda ss, aa, xx, k, w: [
            m if (m := w * (y if (y := k * x) > a else a) ** inv_p) > s else s
            for s, a, x in zip(ss, aa, xx)]
    if inv_p is None and total:
        return lambda ss, aa, xx, k, w: [s + w * (a + k * x) ** q
                                         for s, a, x in zip(ss, aa, xx)]
    if inv_p is None:
        return lambda ss, aa, xx, k, w: [s + w * (y if (y := k * x) > a else a) ** q
                                         for s, a, x in zip(ss, aa, xx)]
    if total:
        return lambda ss, aa, xx, k, w: [s + w * ((a + k * x) ** inv_p) ** q
                                         for s, a, x in zip(ss, aa, xx)]
    return lambda ss, aa, xx, k, w: [s + w * ((y if (y := k * x) > a else a) ** inv_p) ** q
                                     for s, a, x in zip(ss, aa, xx)]


def _line_step(total: bool, inv_p: Optional[float], q: float
               ) -> Callable[[Part, Part, Part, float, float, int], Part]:
    """The last step of a line in one pass (see `_steps`): the running
    outer sum acc after the line whose other terms reduce to v and whose
    last term is k times the part c, with weight w."""
    last = _steps(total, inv_p, q)

    def step(acc: Part, v: Part, c: Part, k: float, w: float, inner: int) -> Part:
        deps = acc[0] | v[0] | c[0]
        return deps, last(_aligned(acc, deps, inner), _aligned(v, deps, inner),
                          _aligned(c, deps, inner), k, w)
    return step


def _checked(acc: Part) -> Optional[Part]:
    """The outer sum where every value is finite, else None.  The values
    are nonnegative, so an inf or a NaN among them makes their sum one."""
    return acc if math.isfinite(sum(acc[1])) else None


def _root_power(r: float) -> Optional[float]:
    """The power 1/r of an outer root, None where it takes none: at r = inf,
    and at r = 1, where x ** 1.0 is x."""
    return None if math.isinf(r) or r == 1.0 else 1.0 / r


def root(r: float) -> Callable[[List[float]], Optional[List[float]]]:
    """The outer root of a `lines_batch` sum: the 1/r-th power (none at
    r = inf or 1); None where it overflows."""
    inv_r = _root_power(r)
    if inv_r is None:
        return lambda xs: xs

    def roots(xs: List[float]) -> Optional[List[float]]:
        try:
            return [x ** inv_r for x in xs]
        except OverflowError:
            return None
    return roots


def ratio_batch(vs: Sequence[float], p: float, q: float
                ) -> Callable[[Part, Parts, int], Optional[List[float]]]:
    """Per candidate, in candidate order, the ratio of a left-hand side,
    given as its outer sum num (`lines_batch`, root 1/q), to the
    right-hand side of the grid's parts cols, (sum vs_n x_n^p)^(1/p) from
    +0.0, or the sup of vs_n x_n from +0.0 at p = inf (the batched
    `oracle._norm`, h = 1), for finite vs.  The right-hand side sums its
    terms but the last at their own widths; one pass adds the last term
    and takes both roots and the quotient, with `numerics.quotient`'s
    rules where the right-hand side is 0.  None where a power overflows or
    a right-hand side is not finite."""
    sup = math.isinf(p)
    rq, rp = _root_power(q), _root_power(p)
    # Both sums are finite, so a root is finite (or overflows) and d is 0.0
    # or a positive float.
    if sup:
        if rq is None:
            def last(nn, rr, yy, u):
                return [n / d if (d := (m if (m := u * y) > r else r)) else quotient(n, d)
                        for n, r, y in zip(nn, rr, yy)]
        else:
            def last(nn, rr, yy, u):
                return [n ** rq / d if (d := (m if (m := u * y) > r else r))
                        else quotient(n ** rq, d) for n, r, y in zip(nn, rr, yy)]
    elif rq is None and rp is None:
        def last(nn, rr, yy, u):
            return [n / d if (d := r + u * y) else quotient(n, d)
                    for n, r, y in zip(nn, rr, yy)]
    elif rq is None:
        def last(nn, rr, yy, u):
            return [n / d if (d := (r + u * y) ** rp) else quotient(n, d)
                    for n, r, y in zip(nn, rr, yy)]
    elif rp is None:
        def last(nn, rr, yy, u):
            return [n ** rq / d if (d := r + u * y) else quotient(n ** rq, d)
                    for n, r, y in zip(nn, rr, yy)]
    else:
        def last(nn, rr, yy, u):
            return [n ** rq / d if (d := (r + u * y) ** rp) else quotient(n ** rq, d)
                    for n, r, y in zip(nn, rr, yy)]

    def ratios(num: Part, cols: Parts, inner: int) -> Optional[List[float]]:
        terms = [(v, c if sup else (c[0], [x ** p for x in c[1]]))
                 for v, c in zip(vs, cols) if c is not None]
        acc = ZERO
        for v, c in terms[:-1]:
            acc = _join(acc, v, c, not sup, inner)
        u, c = terms[-1]
        # Every sum is at most the largest one's bound, so this one is finite
        # where every sum is.
        if not math.isfinite(max(acc[1]) + u * max(c[1])):
            return None
        deps = num[0] | acc[0] | c[0]
        return last(_aligned(num, deps, inner), _aligned(acc, deps, inner),
                    _aligned(c, deps, inner), u)

    def checked(num: Part, cols: Parts, inner: int) -> Optional[List[float]]:
        try:
            return ratios(num, cols, inner)
        except OverflowError:
            return None
    return checked


def _transform(kind: str, forward: bool
               ) -> Optional[Callable[[Parts, int], Parts]]:
    """The batched `oracle._transform`: a None part keeps the running one."""
    if kind == "id":
        return None
    total = kind == "sum"

    def transform(cols: Parts, inner: int) -> Parts:
        out: Parts = []
        acc = None
        for c in (cols if forward else reversed(cols)):
            if c is not None:
                acc = c if acc is None else _join(acc, 1.0, c, total, inner)
            out.append(acc)
        return out if forward else out[::-1]
    return transform


def _reach(present: List[Tuple[int, Part]], size: int, forward: bool
           ) -> Iterator[Tuple[int, List[Tuple[int, Part]], Tuple[int, Part]]]:
    """Per line n that reads a present entry (i, part), in order: n, the
    entries before its last one, and its last one; forward, line n reads
    the entries i <= n, backward those i >= n."""
    if forward:
        ends = [i for i, _ in present[1:]] + [size]
        for m, ((i, c), end) in enumerate(zip(present, ends)):
            for n in range(i, end):
                yield n, present[:m], (i, c)
    else:
        starts = [0] + [i + 1 for i, _ in present[:-1]]
        for m, (start, (i, _)) in enumerate(zip(starts, present)):
            for n in range(start, i + 1):
                yield n, present[m:-1], present[-1]


def lines_batch(f: Form, inst: Instance, lines: List[List[float]]) -> Values:
    """The batched `oracle._lines_evaluator` of the record f on finite
    kernel lines, before the outer root (`root`, `ratio_batch`): per
    candidate (finite and nonnegative), the outer sum of its inner terms.
    None where a part a product reads, or the outer sum, is not finite, or
    a power overflows."""
    power, total, forward = f.power, f.reduce == "sum", f.forward
    pow_p = pow_for(inst.p)
    transform = _transform(f.transform, forward)
    step = _line_step(total, 1.0 / inst.p if power else None, inst.q)
    ws = inst.w.values

    def lhs(cols: Parts, inner: int) -> Optional[Part]:
        if power:
            cols = [None if c is None else (c[0], pow_p(c[1])) for c in cols]
        t = cols if transform is None else transform(cols, inner)
        present = [(i, c) for i, c in enumerate(t) if c is not None]
        # a is finite; its powers and transform are checked, and a running
        # part that a transform repeats where a is 0 once.
        if (power or transform) and not finite(*{id(c): c[1] for _, c in present}.values()):
            return None
        acc = ZERO
        for n, head, (last, c) in _reach(present, len(lines), forward):
            # Line n reads K(i, n) t_i at line[i - base]: for i <= n forward
            # (base 0), for i >= n backward (base n); its last term is c's.
            line, base = lines[n], 0 if forward else n
            v = ZERO
            if head:
                i, h = head[0]
                k = line[i - base]
                v = h[0], ([k * h[1][0]] if not h[0] else [k * x for x in h[1]])
                for i, h in head[1:]:
                    v = _join(v, line[i - base], h, total, inner)
            acc = step(acc, v, c, line[last - base], ws[n], inner)
        return _checked(acc)

    def checked(cols: Parts, inner: int) -> Optional[Part]:
        try:
            return lhs(cols, inner)
        except OverflowError:
            return None
    return checked
