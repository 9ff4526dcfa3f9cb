"""Batches of search candidates on a grid, evaluated factored, bit for bit.

A batch is a grid (`Grid`): a base point and one or two grid
coordinates, each running over a list of values.  Its candidates are the
base point with those coordinates set, in `itertools.product` order
(`candidates`).  `lines_batch` and `norm_batch` are the batched twins of
the oracle's form evaluator (`oracle._lines_evaluator`) and of its
weighted norm (`oracle._norm`), the outer sum of a left-hand side and
the right-hand side.  The support-grid search batches a grid's
candidates; an equivalence suite batches a form's samples
(`oracle._sample_lhs`), every window entry a part whose one coordinate
is the sample index, so that each part runs over all the samples.

They evaluate the grid factored, as a tensor product is (de Boor,
"Efficient computer manipulation of tensor products", ACM TOMS 5, 1979).
Every quantity, from an entry of a or of its transform to an inner term,
its powers and each partial sum of the outer sum and of the right-hand
side, is a part (`Part`): the set of grid coordinates it depends on (bit
k for coordinate k) and its values, one float where it depends on none,
one per value of its coordinate, or one per candidate.  A step on one
part (a power, a product with a kernel entry or a weight) runs at its
width.  A step that joins two parts runs at the width of the coordinates
of both: a part on the first coordinate alone is repeated along the
second, one on the second alone is tiled along the first, and the result
lies first-coordinate-major, in candidate order.

Each candidate still takes each step of the scalar evaluation with plain
`*`, `+` and `max` and the same powers (`numerics.pow_for`), in its own
left-to-right order, so each result is the scalar one bit for bit.  The
Python overhead of a step is paid once per part instead of once per
candidate, and a step's arithmetic once per value of the coordinates it
depends on.  `lines_batch` reads the evaluator's own lines: a backward
record's rows are the kernel's `kernels.Kernel.rows` view, derived once
per kernel and exponent and held for one kernel at a time (reading
along the stored columns on every evaluation would cost more), never
per batch.

They take only the all-finite path: the caller builds them only on
finite kernel lines and weights, and they return None where a part a
product reads is not finite (an overflow), so that the caller falls back
to the per-candidate evaluation and its extended-real rules.  On finite
factors plain `*` is ext_mul up to the sign of a zero product, which no
sum from 0.0 and no sup from +0.0 shows.  A zero entry of the base point
has no part (None) and is skipped: its products are zero, and adding
+0.0 to a nonnegative partial sum, or taking the max with it, changes
no value.
"""

from __future__ import annotations

import itertools
import math
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .instance import Instance
from .numerics import finite, pow_for

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


def map_cols(fn: Callable[[List[float]], List[float]], cols: Parts) -> Parts:
    return [None if c is None else (c[0], fn(c[1])) for c in cols]


def _finite(cols: Parts) -> bool:
    return finite(*(c[1] for c in cols if c is not None))


def per_point(grid: Grid, *parts: Part) -> Iterator[Tuple[float, ...]]:
    """Per candidate of the grid, in order, the values of the parts."""
    every, size = (1 << len(grid.coords)) - 1, math.prod(map(len, grid.values))
    inner = len(grid.values[-1])
    return itertools.islice(zip(*(_spread(p, every, inner) for p in parts)), size)


def _spread(part: Part, deps: int, inner: int) -> Iterable[float]:
    """The values of a part at the width of the coordinates deps, which hold
    its own; inner is the length of the second coordinate's values."""
    own, xs = part
    if own == deps:
        return xs
    if own == 0:
        return itertools.repeat(xs[0])
    if own == 2:
        return itertools.cycle(xs)
    return itertools.chain.from_iterable(zip(*[xs] * inner))


def _join(a: Part, b: Part, total: bool, inner: int) -> Part:
    """Per candidate a + b (total) or the first largest of a and b."""
    deps = a[0] | b[0]
    xs, ys = _spread(a, deps, inner), _spread(b, deps, inner)
    if total:
        return deps, [x + y for x, y in zip(xs, ys)]
    return deps, [y if y > x else x for x, y in zip(xs, ys)]


def _fold(terms: Iterable[Tuple[float, Optional[Part]]], total: bool, inner: int
          ) -> Optional[Part]:
    """Per candidate, the sum (total) or the first largest of k * x over
    the (k, part) terms, left to right; None where every part is None."""
    acc = None
    for k, c in terms:
        if c is None:
            continue
        deps, xs = c
        if acc is None:
            acc = deps, [k * x for x in xs]
        elif acc[0] | deps != deps:
            acc = _join(acc, (deps, [k * x for x in xs]), total, inner)
        elif total:  # x is as wide as the sum: one pass
            acc = deps, [a + k * x for a, x in zip(_spread(acc, deps, inner), xs)]
        else:
            acc = deps, [y if (y := k * x) > a else a
                         for a, x in zip(_spread(acc, deps, inner), xs)]
    return acc


def norm_batch(ws: Sequence[float], r: float) -> Values:
    """Per candidate, (sum ws_n x_n^r)^(1/r), or sup ws_n x_n at r = inf,
    for finite ws: the batched `oracle._norm` (h = 1).  None where x, or
    x^r, is not finite."""
    if math.isinf(r):
        def sup(cols: Parts, inner: int) -> Optional[Part]:
            if not _finite(cols):
                return None
            acc = _fold(zip(ws, cols), False, inner)
            return (0, [0.0]) if acc is None else (acc[0], [x if x > 0.0 else 0.0
                                                            for x in acc[1]])
        return sup
    pow_r, root = pow_for(r), pow_for(1.0 / r)

    def norm(cols: Parts, inner: int) -> Optional[Part]:
        xr = map_cols(pow_r, cols)
        if not _finite(xr):
            return None
        acc = _fold(zip(ws, xr), True, inner)
        return (0, [0.0]) if acc is None else (acc[0], root(acc[1]))
    return norm


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
                acc = c if acc is None else _join(acc, c, total, inner)
            out.append(acc)
        return out if forward else out[::-1]
    return transform


def lines_batch(f: Form, inst: Instance, lines: List[List[float]]) -> Values:
    """The batched `oracle._lines_evaluator` of the record f on finite
    kernel lines: the left-hand side of each candidate, None where a
    part a product reads is not finite."""
    power, total = f.power, f.reduce == "sum"
    pow_p, pow_inv_p = pow_for(inst.p), pow_for(1.0 / inst.p)
    transform = _transform(f.transform, f.forward)
    outer = norm_batch(inst.w.values, inst.q)
    # Line n pairs K(i, n) with a_i from i = 0 (forward), K(n, i) from i = n.
    starts = [0] * len(lines) if f.forward else range(len(lines))

    def lhs(cols: Parts, inner: int) -> Optional[Part]:
        if power:
            cols = map_cols(pow_p, cols)
        t = cols if transform is None else transform(cols, inner)
        if not _finite(t):
            return None
        inners = [_fold(((k, t[i]) for i, k in enumerate(line, start)), total, inner)
                  for start, line in zip(starts, lines)]
        if power:
            inners = map_cols(pow_inv_p, inners)
        return outer(inners, inner)
    return lhs
