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
instead of once per candidate.

They take only the all-finite path: the caller builds them only on
finite kernel lines and weights, and they return None where a column a
product reads is not finite (an overflow), so that the caller falls back
to the per-candidate evaluation and its extended-real rules.  On finite
factors plain `*` is ext_mul up to the sign of a zero product, which no
sum from 0.0 and no sup from +0.0 shows.  A None column is skipped: its
products are zero, and adding +0.0 to a nonnegative partial sum, or
taking the max with it, changes no value.

`vertex_inners` is the twin of the vertex pass: the inner terms of every
single-index candidate e_j from one O(L^2) pass over the kernel lines
instead of one O(L^2) evaluation per vertex.
"""

from __future__ import annotations

import itertools
import math
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

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


def vertex_inners(f: Form, lines: List[List[float]]
                  ) -> Callable[[], Iterator[List[float]]]:
    """The inner terms (before the 1/p root) that `oracle._lines_evaluator`
    computes at each vertex e_j, j = 0, 1, ..., from finite kernel lines.

    e_j and its p-th power are 1.0 at j and 0.0 elsewhere, and a sum or
    max transform of e_j is 1.0 on i >= j (forward) or i <= j, 0.0
    elsewhere.  Line n (forward: K(i, n) for i <= n; else K(n, i) for
    i >= n) covers j when j <= n (forward) or j >= n.  The inner term of
    such a line is its entry at j for the id transform, since K * 1.0 = K
    and adding the zero products K * 0.0 to the running sum from 0.0
    changes no value; for a sum or max transform (every record with one
    reduces by max, at every p) it is the largest entry from j to the end
    of the line (forward) or from its start to j, a suffix or prefix
    maximum.  A line that does not cover j has only zero products.  A
    zero may differ from the scalar one in its sign, which no root, power
    or outer sum shows.
    """
    L, forward = len(lines), f.forward

    def inners() -> Iterator[List[float]]:
        vals = lines if f.transform == "id" else [
            list(itertools.accumulate(reversed(line), max))[::-1] if forward
            else list(itertools.accumulate(line, max)) for line in lines]
        for j in range(L):
            if forward:
                yield [0.0] * j + [vals[n][j] for n in range(j, L)]
            else:
                yield [vals[n][j - n] for n in range(j + 1)] + [0.0] * (L - 1 - j)
    return inners
