"""Left-hand-side functionals and best-constant search.

Every form is one record of FORM_TABLE, and `functional_lhs` evaluates
any record.  A left-hand side is the w-weighted l^q norm over n (the sup
of w_n x_n when q = inf) of an inner term x_n, and the record says how
x_n is built from a test sequence a:

- `forward`: x_n runs over i <= n against K(i, n), else over i >= n
  against K(n, i);
- `transform`: a itself ("id"), or its cumulative "sum" or "max", taken
  from the bottom of the window up to i (forward) or from i to the top;
- `kernel`: the instance kernel ("U"), or the kernel built from the
  sequence u of a row- or sup-of-sequence instance kernel: "row" is u_i,
  "sup" is the max of u_j between i and n;
- `reduce`: the inner reduction over i, "sum" or "max";
- `power`: inner power p.  The kernel and a enter as p-th powers, before
  the transform, and x_n is the 1/p-th power of the reduction, so a
  "sum" transform is the cumulative p-power sum;
- `sigma`: the right-hand side is taken against sigma_p(v; -inf, n)^(-p)
  instead of v.

At p = inf a record with inner power p collapses onto its supremal
analog: the power becomes 1, a cumulative p-power sum becomes a
cumulative max, and an inner sum becomes a max.

A form's evaluator (`_evaluator`) binds once per (form, instance)
everything the pair fixes: the record lookup, the p = inf collapse, the
kernel lines with their p-th powers (a forward record reads the kernel's
stored columns; a backward one reads along rows, which `kernels.rows_of`
derives from the columns once per evaluator build, since reading a
backward line down the columns on every evaluation costs more), one
flag for whether every line entry is finite (the kernel's own, scanned
only for lines raised to p), the transform, the powers p and 1/p
(`numerics.pow_for`), and the outer sum with q, w and 1/q.  That sum
and the right-hand side are one weighted norm (`_norm`), which binds
its weights, their finiteness and its power once.  A search builds both
sides once, and its ratio (`_form_ratios`) checks each candidate once
(finite, nonnegative).  A candidate then pays for its arithmetic: its
powers, its products with the multiplication `numerics.mul_for` picks
from one C-level scan of each vector it derives (its powers or
transform, the inner terms), and the root of each outer sum
(`numerics.ext_pow`, one comparison before the power where the sum is
positive and finite).  `mul_for` gives `operator.mul` where every
factor is finite and ext_mul where one is infinite, so that 0 * inf = 0
still holds.

The vertex pass and the move screen (`screen`) read one view of the
kernel by coordinate, built once per search (`_coordinates`).  The
ascent's move evaluator (`screen.Moves`, made when an ascent starts)
screens a linear record's moves and evaluates a forward record's exact
moves resumed at the moved coordinate: it keeps the lines the move does
not enter and re-sums the others from their frontier, the reduction of
their terms before it, bit for bit the full evaluation.  The
support-grid search evaluates each support's grid points as one batch, a
grid (`batch.Grid`: the base point e_j of the support's first index, and
one or two coordinates running over the grid), through the batched twins
of the evaluator and the right-hand side in `batch`, bit for bit.  They
evaluate it factored: each quantity at the width of the grid coordinates
it depends on, one float, one per grid value or one per candidate.  They
take only the all-finite path.  Where the kernel lines or the weights
are not finite, or a value a product reads is not (an overflow), the
batch goes to the per-candidate ratio, which keeps the extended-real
rules in one place.

The inner 1/p keeps every form degree-1 homogeneous: scaling a test
sequence by t scales every form by t.  The classical "C-double-prime"
constant of a form with inner power p relates to the normalized one by
C'' = (normalized)^p; reports carry both.

Best constants are estimated from below by search over test sequences.
The vertex strategy (single-index sequences) is provably optimal for
the regimes `vertex_exact` names; the other strategies are heuristic
lower bounds.  At p = inf every search, after its vertex pass, and each
constant but D_3 (`_at_top`, at 1/v itself where that is safer) evaluate
at `_top`, 1/v scaled so that no power overflows: exact, not flagged so.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .batch import (BatchRatio, Grid, Ratio, candidates, columns, head, lines_batch,
                    map_cols, norm_batch, per_candidate, per_point)
from .instance import Instance
from .kernels import SEQUENCE_KERNELS, Kernel, RowSequenceKernel, rows_of
from .numerics import (INF, ExponentPair, conjugate, ext_pow, finite, mul_for,
                       pow_for, pows, quotient, sup0)
from .screen import Moves
from .weights import TestSequence, WeightSeq, sigma_p_running


@dataclass(frozen=True)
class Form:
    """One left-hand side; see the module docstring for the fields."""

    forward: bool
    transform: str
    kernel: str
    reduce: str
    power: bool
    sigma: bool = False


def _table(*rows) -> Dict[str, Form]:
    table: Dict[str, Form] = {}
    for name, spec in rows:
        table[name] = table[spec] if isinstance(spec, str) else Form(*spec)
    return table


# An alias names the record it shares.
FORM_TABLE = _table(
    # name        forward transform kernel reduce power  sigma
    ("GOP_DUAL", (True,  "id",  "U",   "sum", False)),
    ("GOP",      (False, "id",  "U",   "sum", False)),
    ("WEAK",     (True,  "id",  "U",   "max", False)),
    ("STRONG",   (True,  "id",  "U",   "sum", True)),
    ("SUP_ITER", (True,  "sum", "U",   "max", False)),
    ("CPRIME",   (True,  "id",  "U",   "sum", True,  True)),
    ("CDPRIME",  (True,  "sum", "U",   "max", True,  True)),
    ("B1", "WEAK"),
    ("B2",       (True,  "max", "U",   "max", False)),
    ("B3", "SUP_ITER"),
    ("B4", "GOP_DUAL"),
    ("B5",       (True,  "sum", "U",   "max", True)),
    ("B6", "STRONG"),
    ("BT1",      (False, "id",  "U",   "max", False)),
    ("BT2",      (False, "max", "U",   "max", False)),
    ("BT3",      (False, "sum", "U",   "max", False)),
    ("BT4", "GOP"),
    ("BT5",      (False, "sum", "U",   "max", True)),
    ("BT6",      (False, "id",  "U",   "sum", True)),
    ("SB1",      (True,  "max", "row", "max", False)),
    ("SB2",      (True,  "id",  "sup", "max", False)),
    ("SB3",      (True,  "sum", "row", "max", False)),
    ("SB4",      (True,  "sum", "sup", "max", False)),
    ("SB5",      (True,  "id",  "sup", "sum", False)),
    ("SB6",      (True,  "sum", "row", "max", True)),
    ("SB7",      (True,  "sum", "sup", "max", True)),
    ("SB8",      (True,  "id",  "sup", "sum", True)),
)

# The two scaled Hardy displays are table forms on an instance that
# `scaling_pair` derives from its weights.
SCALING_FORMS = {"SCALE3": "GOP_DUAL", "SCALE4": "STRONG"}

FORMS = tuple(FORM_TABLE) + tuple(SCALING_FORMS)


def _record(form: str) -> Form:
    try:
        return FORM_TABLE[form]
    except KeyError:
        raise ValueError(f"unknown or non-instance form: {form}") from None


def _pinf_analog(f: Form) -> Form:
    """Inner p-th-power blocks become suprema at p = inf."""
    if not f.power:
        return f
    return replace(f, power=False, reduce="max",
                   transform="max" if f.transform == "sum" else f.transform)


def _values(inst: Instance, a: TestSequence) -> List[float]:
    if a.start == inst.start and len(a) == inst.length:
        return list(a.values)
    for i in a.indices():
        if a[i] != 0.0 and not (inst.start <= i <= inst.stop):
            raise ValueError("test sequence supported outside the window")
    return [a[i] for i in range(inst.start, inst.stop + 1)]


def _transform(kind: str, forward: bool
               ) -> Optional[Callable[[List[float]], List[float]]]:
    """The cumulative transform of a record, None for "id"."""
    if kind == "id":
        return None
    op = operator.add if kind == "sum" else max
    if forward:
        return lambda av: list(itertools.accumulate(av, op))
    return lambda av: list(itertools.accumulate(reversed(av), op))[::-1]


def _form_columns(form: str, inst: Instance
                  ) -> Tuple[Form, List[List[float]], bool]:
    """The record of the form, collapsed where p = inf, the stored columns
    K(i, n), i <= n, of its kernel, raised to p where the record says so,
    and whether every entry is finite: the kernel's own flag (an SB
    kernel is a validated sequence kernel, as the instance's is), a scan
    only of columns raised to p."""
    f = _record(form)
    if math.isinf(inst.p):
        f = _pinf_analog(f)
    kern = inst.kernel
    if f.kernel != "U":
        if not isinstance(kern.spec, tuple(SEQUENCE_KERNELS.values())):
            raise ValueError("SB forms need a row- or sup-of-sequence kernel")
        kind = SEQUENCE_KERNELS[f.kernel]
        if type(kern.spec) is not kind:
            kern = Kernel(kind(kern.spec.u), kern.start, kern.length)
    if not f.power:
        return f, kern.columns, inst.kernel.finite
    cols = list(map(pow_for(inst.p), kern.columns))
    return f, cols, finite(*cols)


def _coordinates(f: Form, cols: List[List[float]]) -> List[List[float]]:
    """Per coordinate j, the inner terms of the vertex e_j on the lines n
    that j enters (n >= j forward, n <= j backward), from the record's
    columns (raised to p where f.power).

    e_j, its p-th power and its sum or max transform are 1.0 at j, the
    transform also on i > j (forward) or i < j.  Under the id transform
    line n's inner term is its entry at j (K * 1.0 = K, and the products
    K * 0.0 add nothing to a sum from 0.0): row j of the columns forward,
    column j backward.  Under a sum or max transform (every such record
    reduces by max, at every p) it is the largest entry of line n from j
    to its end (forward: the rows of the columns' suffix maxima) or from
    its start to j (backward: a running max down the columns).  A zero
    may differ from the scalar one in its sign, which no root, power or
    outer sum shows.
    """
    if f.forward:
        if f.transform != "id":
            cols = [list(itertools.accumulate(reversed(c), max))[::-1] for c in cols]
        return rows_of(cols)
    if f.transform == "id":
        return cols
    running = [cols[0]]
    for col in cols[1:]:
        running.append(list(map(max, running[-1], col)) + col[-1:])
    return running


def _evaluator(form: str, inst: Instance) -> Callable[[List[float]], float]:
    """The form's left-hand side on the instance, as a function of the
    window values of a (nonnegative).

    What depends only on (form, instance) is done here, once: the record
    lookup and the p = inf collapse, the kernel columns and their p-th
    powers, and whether every entry is finite (`_form_columns`), and the
    lines, which for a backward record are the rows derived from them;
    `_lines_evaluator` binds the rest.
    """
    f, cols, lines_finite = _form_columns(form, inst)
    lines = cols if f.forward else rows_of(cols)
    return _lines_evaluator(f, inst, lines, lines_finite)


def _lines_evaluator(f: Form, inst: Instance, lines: List[List[float]],
                     lines_finite: bool) -> Callable[[List[float]], float]:
    """`_evaluator` of the record f (collapsed where p = inf) on its kernel
    lines, raised to p where f.power, and their finiteness: binds the
    transform and the outer sum with its q, w and 1/q."""
    reduce = sum if f.reduce == "sum" else max
    power, forward = f.power, f.forward
    pow_p = pow_for(inst.p)
    transform = _transform(f.transform, forward)
    finish = _finish(f, inst)

    def lhs(av: List[float], out: Optional[list] = None) -> float:
        if power:
            av = pow_p(av)
        t = av if transform is None else transform(av)
        mul = mul_for(t, rest_finite=lines_finite)
        if forward:
            inners = [reduce(map(mul, line, t)) for line in lines]
        else:
            inners = [reduce(map(mul, line, t[n:])) for n, line in enumerate(lines)]
        if out is not None:
            out += (t, inners)
        return finish(inners)
    return lhs


def _finish(f: Form, inst: Instance) -> Callable[[List[float]], float]:
    """The left-hand side of the record f of its inner terms: their 1/p-th
    powers where f.power, then the outer norm with w and q."""
    outer = _norm(inst.w.values, inst.q)
    if not f.power:
        return outer
    pow_inv_p = pow_for(1.0 / inst.p)
    return lambda inners: outer(pow_inv_p(inners))


def functional_lhs(form: str, inst: Instance, a: TestSequence) -> float:
    """Evaluate the named left-hand-side functional at a (degree-1 form)."""
    return _evaluator(form, inst)(_values(inst, a))


def rhs_norm(inst: Instance, a: TestSequence) -> float:
    """(sum a_n^p v_n)^(1/p); sup of a_n v_n when p = inf."""
    return _norm(inst.v.values, inst.p)(_values(inst, a))


def _norm(ws: Sequence[float], r: float, h: float = 1.0
          ) -> Callable[[Sequence[float]], float]:
    """(sum h ws_n x_n^r)^(1/r), or sup ws_n x_n when r = inf, as a
    function of x; whether the fixed ws is finite is checked here, once.

    A left-hand side is this norm of its inner terms with w and q, the
    right-hand side that of a with v and p.  h is the length of the piece
    each entry stands for: 1 for a sequence, 1/2 for the bridge's
    half-unit grid.  It multiplies x_n^r before ws_n does (halving ws_n
    instead would round differently on subnormals).  Given a list `out`
    at r < inf, the norm appends the terms x^r and their weighted sum.
    """
    ws_finite = finite(ws)
    if math.isinf(r):
        return lambda xs, out=None: sup0(map(mul_for(xs, rest_finite=ws_finite), xs, ws))
    inv_r, pow_r = 1.0 / r, pow_for(r)

    def norm(xs: Sequence[float], out: Optional[list] = None) -> float:
        xr = pow_r(xs)
        if h != 1.0:
            xr = [x * h for x in xr]
        total = sum(map(mul_for(xr, rest_finite=ws_finite), xr, ws))
        if out is not None:
            out += (xr, total)
        return ext_pow(total, inv_r)
    return norm


def form_rhs_weights(form: str, inst: Instance) -> List[float]:
    """The weight sequence the form's right-hand side is taken against."""
    if _record(form).sigma:
        return pows(sigma_p_running(inst.v, inst.p), -inst.p)
    return list(inst.v.values)


def vertex_exact(form: str, e: ExponentPair) -> bool:
    """Whether single-index search provably attains the supremum.

    A form without inner power is degree-1 and subadditive in a, so
    vertices are optimal when p <= 1 and q >= p; a form with inner power
    p is linear in b_n = a_n^p v_n, so they are optimal whenever q >= p.
    """
    f = FORM_TABLE.get(SCALING_FORMS.get(form, form))
    if f is None:
        return False
    q_ge_p = math.isinf(e.q) or (not math.isinf(e.p) and e.q >= e.p)
    return q_ge_p and (f.power or e.p <= 1)


class Ratios(NamedTuple):
    """A search ratio with its twins, None where it has none: the batched
    ratio, the ratios of all vertices from one pass, a function that makes
    the ascent's move evaluator (called by the ascent, which reads it:
    `screen.Moves`, the screen of a linear record and the resumed exact
    moves of a forward one, or the bridge's resumed sweep), and at p = inf
    the point `_top` where the ratio peaks, 0 where it is inf.

    A move evaluator has `state(out)`, the state at a point from what the
    ratio appended to `out` when it evaluated that point, and
    `move(st, j, y, cur, out, ratio)`: the ratio at y, which differs from
    the point of state st only in coordinate j, with what `state` reads
    appended to `out`, or None where that ratio is provably at most cur.
    A move it leaves to the search's ratio it evaluates as ratio(y, out)."""

    ratio: Ratio
    batch: Optional[BatchRatio] = None
    vertices: Optional[Callable[[], List[Optional[float]]]] = None
    screen: Optional[Callable[[], Moves]] = None
    top: Optional[List[float]] = None


def _unit(j: int, dim: int) -> List[float]:
    x = [0.0] * dim
    x[j] = 1.0
    return x


def _top(vv: Sequence[float]) -> Tuple[List[float], int]:
    """1/vv (an inf entry stays inf) times 2^-e, and e, which puts the largest
    finite entry in [0.5, 1) (e = 0 if none): every form peaks at 1/vv at p = inf."""
    inv = pows(vv, -1.0)
    e = math.frexp(max([x for x in inv if x < INF], default=0.0))[1]
    return [math.ldexp(x, -e) for x in inv], e


def _at_top(lhs: Callable[[List[float]], float], vv: Sequence[float]) -> float:
    """lhs(1/vv) for a degree-1 lhs: at 1/vv where `_top` scales down (e > 0)
    and would push small entries further down, else at `_top` times 2^e (inf
    on overflow); then at the other point where that one reads 0 or inf.
    Where both read inf and a positive vv_n has an infinite reciprocal (a
    subnormal), at 1/(vv 2^k) times 2^k, k the shift that makes the least
    positive vv_n normal, but at most the one that keeps max vv 2^k finite."""
    x, e = _top(vv)

    def at(a: List[float], k: int) -> float:
        r = lhs(a)
        return math.ldexp(r, k) if math.frexp(r)[1] + k <= 1024 else INF
    value = at(pows(vv, -1.0), 0) if e > 0 else at(x, e)
    if 0.0 < value < INF:
        return value
    other = at(x, e) if e > 0 else at(pows(vv, -1.0), 0)
    least = min(filter(None, vv), default=INF)
    if value == other == INF and pows([least], -1.0)[0] == INF:
        k = min(-1021 - math.frexp(least)[1], 1024 - math.frexp(max(vv))[1])
        return at(pows([math.ldexp(t, k) for t in vv], -1.0), k)
    return other or value


def _form_ratios(form: str, inst: Instance, a_pow: Optional[float] = None) -> Ratios:
    """lhs(a) / rhs(a) as a function of a search vector x, with a = x or,
    given a_pow, a = x^a_pow entrywise, and its twins.

    Given a list `out`, the ratio appends what the left-hand side and
    the right-hand side append (the move screen's state).  The twins
    take only finite kernel lines and weights.  The vertex twin runs the
    evaluator's last steps and the right-hand side on the inner terms of
    each vertex from the view by coordinate, zero on the lines j does not
    enter (x^a_pow is x at a vertex).  The move evaluator (`screen.Moves`),
    which reads the same view, takes the linear and the forward records at
    finite p and q without a_pow.
    """
    vv = form_rhs_weights(form, inst)
    top = [x if x < INF else 0.0 for x in _top(vv)[0]] if math.isinf(inst.p) else None
    f, kernel_cols, lines_finite = _form_columns(form, inst)
    lines = kernel_cols if f.forward else rows_of(kernel_cols)
    lhs, rhs = _lines_evaluator(f, inst, lines, lines_finite), _norm(vv, inst.p)
    to_a = None if a_pow is None else pow_for(a_pow)
    lo = inst.start

    def ratio(x: Sequence[float], out: Optional[list] = None) -> Optional[float]:
        a = x if to_a is None else to_a(x)
        if not (finite(a) and min(a) >= 0):
            TestSequence(lo, tuple(a))  # raises the entry's validation error
        return quotient(lhs(a, out), rhs(a, out))

    one_by_one = per_candidate(ratio)
    if not (lines_finite and finite(vv)):
        return Ratios(ratio, one_by_one, top=top)
    lhs_batch, rhs_batch = lines_batch(f, inst, lines), norm_batch(vv, inst.p)

    def batch(grid: Grid) -> List[Optional[float]]:
        cols = columns(grid)
        a = cols if to_a is None else map_cols(to_a, cols)
        present = [c[1] for c in a if c is not None]
        if finite(*present) and min(map(min, present)) >= 0:
            inner = len(grid.values[-1])
            num = lhs_batch(a, inner)
            den = None if num is None else rhs_batch(a, inner)
            if den is not None:
                return [x / y if 0.0 < y < INF else quotient(x, y)
                        for x, y in per_point(grid, num, den)]
        return one_by_one(grid)

    coords, finish, L = _coordinates(f, kernel_cols), _finish(f, inst), inst.length

    def vertices() -> List[Optional[float]]:
        pad = ((lambda j, c: [0.0] * j + c) if f.forward
               else (lambda j, c: c + [0.0] * (L - 1 - j)))
        return [quotient(finish(pad(j, c)), rhs(_unit(j, L)))
                for j, c in enumerate(coords)]

    p, q, w = inst.p, inst.q, inst.w.values
    moves = None
    if ((f.forward or (f.transform == "id" and f.reduce == "sum")) and a_pow is None
            and math.isfinite(p) and math.isfinite(q) and finite(w)):
        moves = functools.partial(Moves, f, lines, coords, w, vv, p, q)
    return Ratios(ratio, batch, vertices, moves, top)


@dataclass(frozen=True)
class OracleResult:
    estimate: float
    witness: TestSequence
    strategy: str
    evaluations: int
    exact: bool


class _Search:
    """Shared maximizer over nonnegative coefficient vectors."""

    def __init__(self, fns: Ratios, dim: int, budget: int, seed: int):
        if budget < dim:
            raise ValueError("budget must cover at least one pass over the window")
        self.fns = fns
        self.ratio_fn = fns.ratio
        self.batch_fn = fns.batch or per_candidate(fns.ratio)
        self.dim = dim
        self.budget = budget
        self.rng = random.Random(seed)
        self.evals = 0
        self.best = 0.0
        self.best_x: Optional[List[float]] = None

    def consider(self, x: Sequence[float], out: Optional[list] = None
                 ) -> Optional[float]:
        return self._count(x, self.ratio_fn(x) if out is None else self.ratio_fn(x, out))

    def _count(self, x: Sequence[float], r: Optional[float]) -> Optional[float]:
        """One evaluation, of x with ratio r: x becomes the best point if r
        is above the best ratio (or is the first ratio)."""
        self.evals += 1
        if r is not None and (self.best_x is None or r > self.best):
            self.best = r
            self.best_x = list(x)
        return r

    def witness(self) -> List[float]:
        """The best point so far; e_0 where no candidate had a ratio."""
        return self.best_x if self.best_x is not None else _unit(0, self.dim)

    def _keep_first_max(self, rs: List[Optional[float]],
                        witness: Callable[[int], List[float]]):
        """`consider` of candidates 0, 1, ... with ratios rs, in order: the
        first largest ratio above the best replaces it."""
        self.evals += len(rs)
        best = None if self.best_x is None else self.best
        best_k = None
        for k, r in enumerate(rs):
            if r is not None and (best is None or r > best):
                best, best_k = r, k
        if best_k is not None:
            self.best = best
            self.best_x = witness(best_k)

    def vertices(self):
        """Every single-index candidate e_j, from the vertex twin where the
        ratio has one, then `top` where there is one and the budget allows."""
        dim = self.dim
        rs = (self.fns.vertices() if self.fns.vertices is not None
              else [self.ratio_fn(_unit(j, dim)) for j in range(dim)])
        self._keep_first_max(rs, lambda k: _unit(k, dim))
        if self.fns.top is not None and self.evals < self.budget:
            self.consider(self.fns.top)

    def run(self, strategy: str, exact_ok: bool) -> str:
        """The vertex pass, then the pass `STRATEGIES` names ("auto": vertex if
        exact_ok, else support_grid up to dim 8, multistart_ascent above)."""
        if strategy == "auto":
            strategy = ("vertex" if exact_ok else "support_grid" if self.dim <= 8
                        else "multistart_ascent")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {strategy}")
        self.vertices()
        if STRATEGIES[strategy] is not None:
            STRATEGIES[strategy](self)
        return strategy

    def consider_batch(self, grid: Grid):
        """`consider` of every candidate of the grid, in order."""
        self._keep_first_max(self.batch_fn(grid),
                             lambda k: next(itertools.islice(candidates(grid), k, None)))

    def support_grid(self):
        """Each support's grid points as one batch, a `Grid` on e_j for the
        support's first index j with its other indices running over the
        grid; at the remaining budget it is cut (`batch.head`)."""
        remaining = max(self.budget - self.evals, 0)
        n2 = self.dim * (self.dim - 1) // 2
        n3 = self.dim * (self.dim - 1) * (self.dim - 2) // 6
        g = 3
        while g + 2 <= 15 and n2 * (g + 2) + n3 * (g + 2) ** 2 <= remaining:
            g += 2
        grid = [10.0 ** t for t in _linspace(-4.0, 4.0, g)]
        for size in (2, 3):
            for support in itertools.combinations(range(self.dim), size):
                if self.evals >= self.budget:
                    return
                full = Grid(_unit(support[0], self.dim), support[1:], (grid,) * (size - 1))
                for batch in head(full, self.budget - self.evals):
                    self.consider_batch(batch)

    def ascent(self):
        """Coordinate ascent from the best point so far (if finite) and 8
        random seeds, within the budget.  From each seed, every coordinate
        j in turn is multiplied by step and by 1/step (a zero coordinate
        first becomes 1e-12), and a move is taken at once when it raises
        the ratio (first improvement).  step starts at 4 and is square-
        rooted after a sweep without improvement, until it is 1.005 or
        less.

        Where the ratio has a move evaluator (`Ratios.screen`), it is built
        when the ascent starts, and each point's exact evaluation leaves
        it a state (None: the point's moves take the plain ratio).  From a
        state it gives a move's ratio bit for bit, or None where that ratio
        is provably no higher than the current one; such a move counts as
        an evaluation like any other.

        A move to a point the same seed has already evaluated (its seed
        point or an earlier move's, such as the move back after an accepted
        step, or a sweep repeated at the same step after its last
        improvement) counts as an evaluation and computes nothing.  It can
        never be taken: the current ratio only rises, so the point's ratio
        was at most the current one after it was evaluated, and the best
        ratio is at least the current one.  So the estimate, the witness
        and the count are what evaluating it would give.
        """
        moves = None if self.fns.screen is None else self.fns.screen()
        seeds = []
        if self.best_x is not None and all(math.isfinite(t) for t in self.best_x):
            seeds.append(list(self.best_x))
        for _ in range(8):
            seeds.append([10.0 ** self.rng.uniform(-3, 3) for _ in range(self.dim)])
        for x in seeds:
            if self.evals >= self.budget:
                return
            out = None if moves is None else []
            cur = self.consider(x, out)
            if cur is None:
                continue
            st = None if moves is None else moves.state(out)
            seen = {tuple(x)}
            step = 4.0
            while step > 1.005 and self.evals < self.budget:
                improved = False
                for j in range(self.dim):
                    for f in (step, 1.0 / step):
                        if self.evals >= self.budget:
                            return
                        y = list(x)
                        y[j] = max(x[j], 1e-12) * f
                        point = tuple(y)
                        if point in seen:
                            self.evals += 1
                            continue
                        seen.add(point)
                        out = None if moves is None else []
                        r = (self.consider(y, out) if st is None
                             else self._count(y, moves.move(st, j, y, cur, out, self.ratio_fn)))
                        if r is not None and r > cur:
                            x, cur = y, r
                            st = None if moves is None else moves.state(out)
                            improved = True
                if not improved:
                    step = math.sqrt(step)


# Each strategy by name, with the `_Search` pass it runs after the vertex pass.
STRATEGIES = {"vertex": None, "support_grid": _Search.support_grid,
              "multistart_ascent": _Search.ascent}


def _linspace(a: float, b: float, n: int) -> List[float]:
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _run_search(fns: Ratios, dim: int, start: int, strategy: str, budget: int,
                seed: int, exact_ok: bool) -> OracleResult:
    """`_Search.run` within budget evaluations, as an `OracleResult`."""
    s = _Search(fns, dim, budget, seed)
    strategy = s.run(strategy, exact_ok)
    return OracleResult(s.best, TestSequence(start, tuple(s.witness())), strategy,
                        s.evals, exact_ok and strategy == "vertex")


def best_constant(form: str, inst: Instance, strategy: str = "auto",
                  budget: int = 2000, seed: int = 0) -> OracleResult:
    """Lower-bound estimate of sup over a != 0 of lhs(a) / rhs(a)."""
    return _run_search(_form_ratios(form, inst), inst.length, inst.start, strategy,
                       budget, seed, vertex_exact(form, inst.exponents))


def strong_classical_constant(normalized: float, p: float) -> float:
    """Convert a normalized strong-form constant back to its classical scale."""
    return ext_pow(normalized, p)


def reverse_instance(inst: Instance) -> Instance:
    """Index change n -> -n: swaps the two dual inequalities exactly."""
    v = WeightSeq(-inst.stop, tuple(reversed(inst.v.values)))
    w = WeightSeq(-inst.stop, tuple(reversed(inst.w.values)))
    return Instance(exponents=inst.exponents, v=v, w=w,
                    kernel=inst.kernel.reversed_())


def scaling_pair(side: str, b: WeightSeq, c: WeightSeq, e: ExponentPair,
                 strategy: str = "auto", budget: int = 2000,
                 seed: int = 0) -> OracleResult:
    """Best constant of the two scaled Hardy displays (unit right weight).

    SCALE3 pairs the plain weighted partial-sum inequality
    (sum_k b_k (sum_{i<=k} c_i x_i)^q)^(1/q) <= C (sum x_i^p)^(1/p);
    it is GOP_DUAL with the row kernel c, v = 1 and w = b.  SCALE4 is
    the rescaled one, (sum_k b_k (sum_{i<=k} coeff_i x_i)^(q/p))^(1/q)
    <= C (sum x_i)^(1/p), whose coefficients are cumulative dual powers
    of c for p > 1 and running sups of c for p = 1; with x = a^p it is
    STRONG with the row kernel coeff^(1/p), v = 1 and w = b.  Its search
    runs over x, and the witness is reported in x.
    """
    return _run_search(_scaling_ratios(side, b, c, e), len(b), b.start, strategy,
                       budget, seed, vertex_exact(side, e))


def _scaling_ratios(side: str, b: WeightSeq, c: WeightSeq, e: ExponentPair
                    ) -> Ratios:
    """The search ratios of a scaled Hardy display (see `scaling_pair`)."""
    p, q = e.p, e.q
    if math.isinf(p) or p < 1 or math.isinf(q):
        raise ValueError("scaling forms need 1 <= p < inf and 0 < q < inf")
    if b.start != c.start or len(b) != len(c):
        raise ValueError("b and c must share the window")
    form = SCALING_FORMS.get(side)
    if form is None:
        raise ValueError(f"unknown scaling side: {side}")
    cv, a_pow = list(c.values), None
    if side == "SCALE4":
        # coeff_i^(1/p) is the l^p' norm of c up to i: its running max at p = 1.
        if p > 1:
            pc = conjugate(p)
            cv = pows(list(itertools.accumulate(pows(cv, pc))), 1.0 / pc)
        else:
            cv = list(itertools.accumulate(cv, max))
        a_pow = 1.0 / p
    L = len(b)
    inst = Instance(e, WeightSeq(b.start, (1.0,) * L), b,
                    Kernel(RowSequenceKernel(WeightSeq(b.start, tuple(cv))),
                           b.start, L))
    return _form_ratios(form, inst, a_pow)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    passed: bool
    estimates: Dict[str, float] = field(default_factory=dict)
    ratio_bounds: Tuple[float, float] = (0.0, 0.0)
    violations: tuple = ()
    trials: int = 0


def _random_sequences(inst: Instance, trials: int, seed: int) -> List[TestSequence]:
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        vals = []
        for _ in range(inst.length):
            if rng.random() < 0.2:
                vals.append(0.0)
            else:
                vals.append(10.0 ** rng.uniform(-2, 2))
        if all(x == 0.0 for x in vals):
            vals[rng.randrange(inst.length)] = 1.0
        out.append(TestSequence(inst.start, tuple(vals)))
    return out


def _check_chain(forms: Sequence[str], inst: Instance, samples):
    bad = []
    lhs = [_evaluator(f, inst) for f in forms]
    for a in samples:
        av = _values(inst, a)
        vals = [ev(av) for ev in lhs]
        for (f1, x), (f2, y) in zip(zip(forms, vals), zip(forms[1:], vals[1:])):
            if x > y * (1.0 + 1e-12) + 0.0:
                bad.append((f1, f2, x, y, a.values))
    return bad


def _ratio_bounds(values: Dict[str, float]) -> Tuple[float, float]:
    finite = [x for x in values.values() if x > 0 and math.isfinite(x)]
    if len(finite) < 2 or len(finite) != len(values):
        return (1.0, 1.0) if len(set(values.values())) <= 1 else (0.0, INF)
    return min(finite) / max(finite), max(finite) / min(finite)


def equivalence_suite(suite: str, inst: Instance, budget: int = 2000,
                      seed: int = 0, trials: int = 200) -> SuiteReport:
    """Run one of the theorem-backed equivalence suites on an instance."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    p, q = inst.p, inst.q
    # scaling and dual make no sampled check, so they draw no samples.
    samples = ([] if suite in ("scaling", "dual")
               else _random_sequences(inst, trials, seed))
    violations: List = []
    estimates: Dict[str, float] = {}

    if suite == "six":
        if p > 1 or math.isinf(q):
            raise ValueError("the six-form suite needs p <= 1 and finite q")
        violations += _check_chain(["B1", "B2", "B3", "B4", "B6"], inst, samples)
        violations += _check_chain(["B3", "B5", "B6"], inst, samples)
        for f in ("B1", "B2", "B3", "B4", "B5", "B6"):
            estimates[f] = best_constant(f, inst, "auto", budget, seed).estimate
    elif suite == "hux":
        if p > 1 or math.isinf(q):
            raise ValueError("the sup-of-sequence suite needs p <= 1 and finite q")
        for pair in (("SB1", "SB2"), ("SB3", "SB4"), ("SB6", "SB7")):
            lhs_x, lhs_y = _evaluator(pair[0], inst), _evaluator(pair[1], inst)
            for a in samples:
                av = _values(inst, a)
                x, y = lhs_x(av), lhs_y(av)
                if not _close(x, y, 1e-12):
                    violations.append((pair[0], pair[1], x, y, a.values))
        violations += _check_chain(["SB2", "SB4", "SB5", "SB8"], inst, samples)
        violations += _check_chain(["SB4", "SB7", "SB8"], inst, samples)
        for f in ("SB1", "SB2", "SB3", "SB4", "SB5", "SB6", "SB7", "SB8"):
            estimates[f] = best_constant(f, inst, "auto", budget, seed).estimate
    elif suite == "kernel_main":
        if p > 1:
            raise ValueError("the three-form equivalence needs p <= 1")
        violations += _check_chain(["WEAK", "GOP_DUAL", "STRONG"], inst, samples)
        for f in ("WEAK", "GOP_DUAL", "STRONG"):
            estimates[f] = best_constant(f, inst, "auto", budget, seed).estimate
        if not (estimates["WEAK"] <= estimates["GOP_DUAL"] * (1 + 1e-9)
                and estimates["GOP_DUAL"] <= estimates["STRONG"] * (1 + 1e-9)):
            violations.append(("constant-chain", estimates))
    elif suite == "supremalpge":
        if p < 1 or math.isinf(p) or math.isinf(q):
            raise ValueError("the sigma-weighted suite needs 1 <= p < inf, q < inf")
        violations += _check_chain(["CDPRIME", "CPRIME"], inst, samples)
        for f in ("SUP_ITER", "CPRIME", "CDPRIME"):
            estimates[f] = best_constant(f, inst, "auto", budget, seed).estimate
    elif suite == "scaling":
        for side in ("SCALE3", "SCALE4"):
            estimates[side] = scaling_pair(side, inst.w, inst.v, inst.exponents,
                                           "auto", budget, seed).estimate
    elif suite == "dual":
        a = best_constant("GOP", inst, "vertex", budget, seed).estimate
        b = best_constant("GOP_DUAL", reverse_instance(inst), "vertex",
                          budget, seed).estimate
        estimates["GOP"] = a
        estimates["GOP_DUAL_reversed"] = b
        if not _close(a, b, 1e-9):
            violations.append(("dual-mismatch", a, b))
    else:
        raise ValueError(f"unknown suite: {suite}")

    return SuiteReport(suite=suite, passed=not violations, estimates=estimates,
                       ratio_bounds=_ratio_bounds(estimates),
                       violations=tuple(violations[:20]), trials=len(samples))


def _close(x: float, y: float, rel: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))
