"""Batches of search candidates, evaluated column-major, bit for bit.

A batch holds candidate vectors column-major: `cols[i]` holds coordinate
i of every candidate, and None marks a coordinate that is zero in all of
them (at least one column is not None).  `lines_batch` and `norm_batch`
are the batched twins of the oracle's form evaluator
(`oracle._lines_evaluator`) and of its weighted norm (`oracle._norm`),
the outer sum of a left-hand side and the right-hand side.  They run
each step of the scalar evaluation over whole columns with plain `*`,
`+` and `max` and the same powers (`numerics.pow_for`), in each
candidate's own left-to-right order, so each result is the scalar one
bit for bit.  The Python overhead of a step is paid once per batch
instead of once per candidate.  `lines_batch` reads the evaluator's own
lines: a backward record's rows come from `kernels.rows_of` once per
evaluator build (reading along the stored columns on every evaluation
would cost more), never per batch.

They take only the all-finite path: the caller builds them only on
finite kernel lines and weights, and they return None where a column a
product reads is not finite (an overflow), so that the caller falls back
to the per-candidate evaluation and its extended-real rules.  On finite
factors plain `*` is ext_mul up to the sign of a zero product, which no
sum from 0.0 and no sup from +0.0 shows.  A None column is skipped: its
products are zero, and adding +0.0 to a nonnegative partial sum, or
taking the max with it, changes no value.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

from .instance import Instance
from .numerics import finite, pow_for

if TYPE_CHECKING:
    from .oracle import Form

Ratio = Callable[[Sequence[float]], Optional[float]]
Cols = List[Optional[List[float]]]
BatchRatio = Callable[[Cols], List[Optional[float]]]
Values = Callable[[Cols, int], Optional[List[float]]]


def batch_size(cols: Cols) -> int:
    return len(next(c for c in cols if c is not None))


def map_cols(fn: Callable[[List[float]], List[float]], cols: Cols) -> Cols:
    return [None if c is None else fn(c) for c in cols]


def rows(cols: Cols, size: int) -> List[List[float]]:
    """The candidates of a batch, one list each."""
    zero = [0.0] * size
    return [list(x) for x in zip(*(zero if c is None else c for c in cols))]


def per_candidate(ratio: Ratio) -> BatchRatio:
    """The batch of a ratio without a batched form: one call per candidate."""
    return lambda cols: [ratio(x) for x in rows(cols, batch_size(cols))]


def _fold(terms: Iterable[Tuple[float, Optional[List[float]]]], total: bool
          ) -> Optional[List[float]]:
    """Per candidate, the sum (total) or the first largest of k * x over
    the (k, column) terms, left to right; None where every column is None."""
    acc = None
    for k, c in terms:
        if c is None:
            continue
        if acc is None:
            acc = [k * x for x in c]
        elif total:
            acc = [a + k * x for a, x in zip(acc, c)]
        else:
            acc = [y if (y := k * x) > a else a for a, x in zip(acc, c)]
    return acc


def norm_batch(ws: Sequence[float], r: float) -> Values:
    """Per candidate, (sum ws_n x_n^r)^(1/r), or sup ws_n x_n at r = inf,
    for finite ws: the batched `oracle._norm` (h = 1).  None where x, or
    x^r, is not finite."""
    if math.isinf(r):
        def sup(cols: Cols, size: int) -> Optional[List[float]]:
            if not finite(*filter(None, cols)):
                return None
            acc = _fold(zip(ws, cols), False)
            return [0.0] * size if acc is None else [x if x > 0.0 else 0.0 for x in acc]
        return sup
    pow_r, root = pow_for(r), pow_for(1.0 / r)

    def norm(cols: Cols, size: int) -> Optional[List[float]]:
        xr = map_cols(pow_r, cols)
        if not finite(*filter(None, xr)):
            return None
        acc = _fold(zip(ws, xr), True)
        return [0.0] * size if acc is None else root(acc)
    return norm


def _transform(kind: str, forward: bool) -> Optional[Callable[[Cols], Cols]]:
    """The batched `oracle._transform`: a None column keeps the running one."""
    if kind == "id":
        return None
    total = kind == "sum"

    def transform(cols: Cols) -> Cols:
        out: Cols = []
        acc = None
        for c in (cols if forward else reversed(cols)):
            if c is not None:
                if acc is None:
                    acc = c
                elif total:
                    acc = [a + x for a, x in zip(acc, c)]
                else:
                    acc = [x if x > a else a for a, x in zip(acc, c)]
            out.append(acc)
        return out if forward else out[::-1]
    return transform


def lines_batch(f: Form, inst: Instance, lines: List[List[float]]) -> Values:
    """The batched `oracle._lines_evaluator` of the record f on finite
    kernel lines: the left-hand side of each candidate, None where a
    column a product reads is not finite."""
    power, total = f.power, f.reduce == "sum"
    pow_p, pow_inv_p = pow_for(inst.p), pow_for(1.0 / inst.p)
    transform = _transform(f.transform, f.forward)
    outer = norm_batch(inst.w.values, inst.q)
    # Line n pairs K(i, n) with a_i from i = 0 (forward), K(n, i) from i = n.
    starts = [0] * len(lines) if f.forward else range(len(lines))

    def lhs(cols: Cols, size: int) -> Optional[List[float]]:
        if power:
            cols = map_cols(pow_p, cols)
        t = cols if transform is None else transform(cols)
        if not finite(*filter(None, t)):
            return None
        inners = [_fold(((k, t[i]) for i, k in enumerate(line, start)), total)
                  for start, line in zip(starts, lines)]
        if power:
            inners = map_cols(pow_inv_p, inners)
        return outer(inners, size)
    return lhs
