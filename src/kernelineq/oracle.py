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
stored columns, or `Kernel.powered(p)`; a backward one reads along rows,
`Kernel.rows`, since reading a backward line down the columns on every
evaluation costs more), one flag for whether every line entry is finite
(the kernel's own, or the powered view's), the transform, the powers p
and 1/p (`numerics.pow_for`), and the outer sum with q, w and 1/q.  The
kernel derives each view once per exponent, and holds the views of one
kernel at a time (see `kernels`), so evaluators and searches on one
instance share them, and none of them derives a triangle.

On a Hardy-type kernel (the Hardy operator's U = c and the weighted
Hardy operator's U(i, n) = u_i; Hardy, Littlewood and Polya,
*Inequalities*, 1934) the evaluator reads only the diagonal K(i, i),
raised to p where the record says so, with its own finiteness flag, and
takes the inner terms as one running reduction of the products
K(i, i) t_i, L of them per evaluation instead of L(L + 1)/2
(`_diagonal`, `_running`): a forward record on a kernel constant along
rows (`Kernel.rows_constant`: a constant or row kernel, a power of one,
and the SB "row" kernel), where line n + 1 is line n and one term, and
a backward max record on a constant kernel (`Kernel.constant`), a
running max from the top.  It raises no triangle to p and derives no
rows.  A backward sum adds line n from its own first term, so it has no
running form and keeps the lines.  The search's twins below still read
the lines.

The outer sum and the right-hand side are one weighted norm (`_norm`),
which binds its weights, their finiteness and its power once.  A search
resolves its record once (`_form_ratios`: one `_diagonal`, one
`_form_columns`), builds both sides once, and its ratio (on the diagonal
where there is one) checks each candidate once (finite, nonnegative).  A
candidate then pays for its arithmetic: its powers, its products with
the multiplication `numerics.mul_for` picks from one C-level scan of
each vector it derives (its powers or transform, the inner terms), and
the root of each outer sum (`numerics.ext_pow`, one comparison before
the power where the sum is positive and finite).  `mul_for` gives
`operator.mul` where every factor is finite and ext_mul where one is
infinite, so that 0 * inf = 0 still holds.

The vertex pass and a forward record's resumed moves read one view of
the kernel by coordinate, built once per search (`_coordinates`) from
the kernel's rows.  The ascent's move evaluator (`moves.Moves`,
`Ratios.moves`) evaluates a forward record's exact moves resumed at the
moved coordinate: it keeps the lines the move does not enter and re-sums
the others from their frontier, the reduction of their terms before it,
bit for bit the full evaluation, and holds the search's ratio for the
moves it cannot resume.  It builds its states itself, from the point, so
the ratio returns only the ratio, and keeps none, so every ascent reads
the same one.  Under the id transform it holds one memo of the products
K(i, n) t_i, built on its first state and checked against the point of
every move, which forms again only the columns whose t_i differ, so a
move multiplies only its moved column.
A record with a diagonal has its own move evaluator
(`moves.RunningMoves`): it keeps the running reduction's values by n,
and a move at j resumes them in one pass over n >= j, O(L - j).  A
backward record's moves take the full ratio.  The support-grid search
evaluates each support's grid points as one batch, a grid (`batch.Grid`:
the base point e_j of the support's first index, and one or two
coordinates running over the grid), through the batched twins of the
evaluator and the right-hand side in `batch`, bit for bit.  They
evaluate it factored: each quantity at the width of the grid coordinates
it depends on, one float, one per grid value or one per candidate.  An
equivalence suite draws its samples as plain tuples of window values
(`_random_sequences`), which its checks and its violation records read
as they are, and evaluates each form once at all of them, a batch whose
one grid coordinate is the sample index (`_sample_lhs`).  The twins take
only the all-finite path, on grids of finite, nonnegative values, the
only ones the search and the suites build, which they do not check.
Where the kernel lines or the weights are not finite, or a value a
product reads is not (an overflow), a batch goes to the per-candidate
ratio or the per-sample evaluator, which keep the extended-real rules
in one place.

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

import itertools
import math
import operator
import random
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .batch import (BatchRatio, Grid, Ratio, candidates, columns, lines_batch,
                    per_candidate, ratio_batch, root)
from .instance import Instance
from .kernels import SEQUENCE_KERNELS, Kernel, RowSequenceKernel
from .moves import Moves, RunningMoves
from .numerics import (INF, ExponentPair, conjugate, ext_pow, finite, mul_for,
                       pow_for, pows, quotient, sup0)
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


def _form_record(form: str, inst: Instance) -> Form:
    """The record of the form, collapsed where p = inf; an SB record needs
    a sequence kernel."""
    f = _record(form)
    if math.isinf(inst.p):
        f = _pinf_analog(f)
    if f.kernel != "U" and not isinstance(inst.kernel.spec,
                                          tuple(SEQUENCE_KERNELS.values())):
        raise ValueError("SB forms need a row- or sup-of-sequence kernel")
    return f


def _form_columns(f: Form, inst: Instance
                  ) -> Tuple[Kernel, List[List[float]], List[List[float]], bool]:
    """The record's kernel, the instance's or an SB record's sequence
    kernel (the instance's where it is of that kind); its columns K(i, n),
    i <= n, raised to p where the record says so (`Kernel.powered`: the
    stored columns where it does not); the record's lines (the columns
    forward, their rows backward, `Kernel.rows`); and whether every entry
    is finite (an SB kernel is a validated sequence kernel, as the
    instance's is)."""
    kern = inst.kernel
    if f.kernel != "U":
        kind = SEQUENCE_KERNELS[f.kernel]
        if type(kern.spec) is not kind:
            kern = Kernel(kind(kern.spec.u), kern.start, kern.length)
    r = inst.p if f.power else None
    cols, cols_finite = kern.powered(r)
    return kern, cols, cols if f.forward else kern.rows(r), cols_finite


def _diagonal(f: Form, inst: Instance) -> Optional[List[float]]:
    """The diagonal K(i, i) of the record's kernel, raised to p where the
    record says so, where its inner terms are one running reduction over
    it: a forward record on a kernel constant along rows (an SB "row"
    kernel is), a backward max record on a constant one; else None."""
    kern = inst.kernel
    if f.kernel == "row":
        diag = list(kern.spec.u.values)
    elif f.kernel == "U" and (kern.rows_constant if f.forward
                              else kern.constant and f.reduce == "max"):
        diag = [col[-1] for col in kern.powered()[0]]
    else:
        return None
    return pow_for(inst.p)(diag) if f.power else diag


def _coordinates(f: Form, cols: List[List[float]], rows: List[List[float]]
                 ) -> List[List[float]]:
    """Per coordinate j, the inner terms of the vertex e_j on the lines n
    that j enters (n >= j forward, n <= j backward), from the record's
    columns (raised to p where f.power) and their rows.

    e_j, its p-th power and its sum or max transform are 1.0 at j, the
    transform also on i > j (forward) or i < j.  Under the id transform
    line n's inner term is its entry at j (K * 1.0 = K, and the products
    K * 0.0 add nothing to a sum from 0.0): row j forward, column j
    backward.  Under a sum or max transform (every such record reduces by
    max, at every p) it is the largest entry of line n from j to its end
    (forward: a running max up the rows, each column's suffix maxima
    taken from its bottom) or from its start to j (backward: a running
    max down the columns).  A zero may differ from the scalar one in its
    sign, which no root, power or outer sum shows.
    """
    if f.forward:
        if f.transform == "id":
            return rows
        running = [rows[-1]]
        for row in reversed(rows[:-1]):
            running.append(row[:1] + list(map(max, running[-1], row[1:])))
        return running[::-1]
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
    lookup and the p = inf collapse (`_form_record`), and what the inner
    terms read of the kernel: its diagonal where they are a running
    reduction over it (`_diagonal`), else the record's lines and whether
    every entry is finite (`_form_columns`); `_lines_evaluator` binds the
    rest.
    """
    f = _form_record(form, inst)
    diag = _diagonal(f, inst)
    if diag is not None:
        return _lines_evaluator(f, inst, diag, finite(diag), running=True)
    _, _, lines, lines_finite = _form_columns(f, inst)
    return _lines_evaluator(f, inst, lines, lines_finite)


def _lines_evaluator(f: Form, inst: Instance, lines: list, lines_finite: bool,
                     running: bool = False) -> Callable[[List[float]], float]:
    """`_evaluator` of the record f (collapsed where p = inf) on its kernel
    lines, raised to p where f.power, and their finiteness: binds the
    transform and the outer sum with its q, w and 1/q.  Where `running`,
    lines is the record's `_diagonal` d, and the inner terms are one
    running reduction of the products d_i t_i (`_running`)."""
    reduce = sum if f.reduce == "sum" else max
    power, forward = f.power, f.forward
    pow_p = pow_for(inst.p)
    transform = _transform(f.transform, forward)
    finish = _finish(f, inst)
    run = _running(f) if running else None

    def lhs(av: List[float]) -> float:
        if power:
            av = pow_p(av)
        t = av if transform is None else transform(av)
        mul = mul_for(t, rest_finite=lines_finite)
        if run is not None:
            inners = run(map(mul, lines, t))
        elif forward:
            inners = [reduce(map(mul, line, t)) for line in lines]
        else:
            inners = [reduce(map(mul, line, t[n:])) for n, line in enumerate(lines)]
        return finish(inners)
    return lhs


def _running(f: Form) -> Callable[[Iterable[float]], List[float]]:
    """The inner terms of the record from its products d_i t_i on a kernel
    constant along its lines (`_diagonal`), as one running reduction.

    Forward, line n + 1 is line n and one term: a sum is the running sum
    from the int 0, as builtin `sum` starts it and adds left to right
    (below Python 3.12, see `kernelineq.numerics`), and a max the running
    max, which keeps the first of equal terms, as builtin `max` does.  A
    backward max is the running max from the top; of equal terms it keeps
    the last, so a zero may differ from the lines' one in its sign, which
    no root, power or outer sum shows.  A backward sum adds line n from
    d_n t_n up, so it has no running form.
    """
    if not f.forward:
        return lambda terms: list(itertools.accumulate(reversed(list(terms)), max))[::-1]
    if f.reduce == "sum":
        return lambda terms: list(itertools.accumulate(terms, operator.add, initial=0))[1:]
    return lambda terms: list(itertools.accumulate(terms, max))


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
    instead would round differently on subnormals).
    """
    ws_finite = finite(ws)
    if math.isinf(r):
        return lambda xs: sup0(map(mul_for(xs, rest_finite=ws_finite), xs, ws))
    inv_r, pow_r = 1.0 / r, pow_for(r)

    def norm(xs: Sequence[float]) -> float:
        xr = pow_r(xs)
        if h != 1.0:
            xr = [x * h for x in xr]
        return ext_pow(sum(map(mul_for(xr, rest_finite=ws_finite), xr, ws)), inv_r)
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
    ratio, the ratios of all vertices from one pass, the ascent's move
    evaluator (the resumed exact moves of a forward record, `moves.Moves`
    on its kernel lines and `moves.RunningMoves` on its diagonal, or the
    bridge's continuous ratio, which resumes its sweep), and at p = inf
    the point `_top` where the ratio peaks, 0 where it is inf.

    The batched ratio takes only grids of finite, nonnegative values, as
    `_Search.support_grid` builds them, and does not check them; the
    ratio itself rejects a point that is not such.

    A move evaluator is built with the ratio and holds only what it is
    built from, never a point's state, so every ascent on these ratios
    reads the same one.  It has `state(x)`: the ratio at the point x, bit
    for bit, and x's state, or (ratio(x), None) where x's moves take the
    plain ratio; and `move(st, j, y)`: the ratio at y, which differs from
    the point of state st only in coordinate j, bit for bit, and y's
    state, or (ratio(y), None) where the move cannot resume."""

    ratio: Ratio
    batch: Optional[BatchRatio] = None
    vertices: Optional[List[Optional[float]]] = None
    moves: Optional[Union[Moves, RunningMoves]] = None
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


def _form_ratios(form: str, inst: Instance) -> Ratios:
    """lhs(a) / rhs(a) as a function of the window values a, and its twins.

    The record is resolved once, one `_diagonal` and one `_form_columns`
    for the ratio and its twins, which take only finite kernel lines and
    weights.  The batch takes only grids of finite, nonnegative values,
    the only ones `_Search.support_grid` builds (e_j with coordinates over
    powers of ten, or for SCALE4 their 1/p-th powers), and does not scan
    them; it falls back to the per-candidate ratio where a batched twin
    returns None.  The vertex twin runs the evaluator's last steps and the
    right-hand side on the inner terms of each vertex from the view by
    coordinate, zero on the lines j does not enter.  The move evaluator,
    built with the ratio, takes the forward records at finite p and q:
    `moves.Moves`, reading the same view, where the record has no
    diagonal, and `moves.RunningMoves`, which resumes the running
    reduction, where it has one.  Its construction allocates nothing.
    """
    vv = form_rhs_weights(form, inst)
    top = [x if x < INF else 0.0 for x in _top(vv)[0]] if math.isinf(inst.p) else None
    f = _form_record(form, inst)
    diag = _diagonal(f, inst)
    kern, kernel_cols, lines, lines_finite = _form_columns(f, inst)
    lhs = (_lines_evaluator(f, inst, lines, lines_finite) if diag is None
           else _lines_evaluator(f, inst, diag, finite(diag), running=True))
    rhs, lo = _norm(vv, inst.p), inst.start

    def ratio(a: Sequence[float]) -> Optional[float]:
        if not (finite(a) and min(a) >= 0):
            TestSequence(lo, tuple(a))  # raises the entry's validation error
        return quotient(lhs(a), rhs(a))

    if not (lines_finite and finite(vv)):
        return Ratios(ratio, top=top)
    lhs_batch, ratios = lines_batch(f, inst, lines), ratio_batch(vv, inst.p, inst.q)
    one_by_one = per_candidate(ratio)

    def batch(grid: Grid) -> List[Optional[float]]:
        a, inner = columns(grid), len(grid.values[-1])
        num = lhs_batch(a, inner)
        rs = None if num is None else ratios(num, a, inner)
        return one_by_one(grid) if rs is None else rs

    rows = kern.rows(inst.p if f.power else None)
    finish, L = _finish(f, inst), inst.length
    pad = ((lambda j, c: [0.0] * j + c) if f.forward
           else (lambda j, c: c + [0.0] * (L - 1 - j)))
    vertices = [quotient(finish(pad(j, c)), rhs(_unit(j, L)))
                for j, c in enumerate(_coordinates(f, kernel_cols, rows))]
    p, q, w = inst.p, inst.q, inst.w.values
    moves = None
    if f.forward and math.isfinite(p) and math.isfinite(q):
        moves = (Moves(f, lines, rows, w, vv, p, q, ratio) if diag is None
                 else RunningMoves(f, diag, w, vv, p, q, ratio))
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

    def consider(self, x: Sequence[float]) -> Optional[float]:
        return self._count(x, self.ratio_fn(x))

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
        """`consider` of candidates 0, 1, ... with ratios rs (cut to the
        budget), in order: the first largest ratio above the best replaces it.
        C-level `max` and `index` find it; `max` raises TypeError where it
        meets a None ratio, which no ratio is below."""
        self.evals += len(rs)
        try:
            best = max(rs, default=None)
        except TypeError:
            best = max([r for r in rs if r is not None], default=None)
        if best is not None and (self.best_x is None or best > self.best):
            self.best = best
            self.best_x = witness(rs.index(best))

    def vertices(self):
        """Every single-index candidate e_j, from the vertex twin where the
        ratio has one, then `top` where there is one and the budget allows."""
        dim = self.dim
        rs = (self.fns.vertices if self.fns.vertices is not None
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

    def support_grid(self):
        """Each support's grid points as one batch, a `Grid` on e_j for the
        support's first index j with its other indices running over the
        grid.  The whole pass fits in the budget unless g = 3, so a grid
        the budget cuts has 3 or 9 points: its first budget - evals ratios
        count, and at most 8 per search are computed and not counted."""
        remaining = max(self.budget - self.evals, 0)
        n2 = self.dim * (self.dim - 1) // 2
        n3 = self.dim * (self.dim - 1) * (self.dim - 2) // 6
        g = 3
        while g + 2 <= 15 and n2 * (g + 2) + n3 * (g + 2) ** 2 <= remaining:
            g += 2
        grid = [10.0 ** t for t in _linspace(-4.0, 4.0, g)]
        for size in (2, 3):
            for support in itertools.combinations(range(self.dim), size):
                left = self.budget - self.evals
                if left <= 0:
                    return
                batch = Grid(_unit(support[0], self.dim), support[1:], (grid,) * (size - 1))
                self._keep_first_max(
                    self.batch_fn(batch)[:left],
                    lambda k: next(itertools.islice(candidates(batch), k, None)))

    def ascent(self):
        """Coordinate ascent from the best point so far (if finite) and 8
        random seeds, within the budget.  From each seed, every coordinate
        j in turn is multiplied by step and by 1/step (a zero coordinate
        first becomes 1e-12), and a move is taken at once when it raises
        the ratio (first improvement).  step starts at 4 and is square-
        rooted after a sweep without improvement, until it is 1.005 or
        less.

        The seeds run in order until the budget is spent, so one seed can
        take all of it and leave the later ones unrun: on the wide
        workload's two ascents (L = 40 and 50, budget 1000) the first
        seed, the best vertex, spends the whole budget.

        Where the ratio has a move evaluator (`Ratios.moves`, built with
        the ratio), it gives each seed's ratio, bit for bit, with its state
        (None: the seed's moves take the plain ratio), so a seed is
        evaluated once, and from a state a move's ratio with the moved
        point's state (None where the move took the plain ratio).  A seed
        counts as any point does: it becomes the best point where its
        ratio is above the best, even where no move from it improves.

        A move to a point the same seed has already evaluated (its seed
        point or an earlier move's, such as the move back after an accepted
        step, or a sweep repeated at the same step after its last
        improvement) counts as an evaluation and computes nothing.  It can
        never be taken: the current ratio only rises, so the point's ratio
        was at most the current one after it was evaluated, and the best
        ratio is at least the current one.  So the estimate, the witness
        and the count are what evaluating it would give.
        """
        moves = self.fns.moves
        seeds = []
        if self.best_x is not None and all(math.isfinite(t) for t in self.best_x):
            seeds.append(list(self.best_x))
        for _ in range(8):
            seeds.append([10.0 ** self.rng.uniform(-3, 3) for _ in range(self.dim)])
        for x in seeds:
            if self.evals >= self.budget:
                return
            cur, st = (self.ratio_fn(x), None) if moves is None else moves.state(x)
            self._count(x, cur)
            if cur is None:
                continue
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
                        r, y_st = ((self.ratio_fn(y), None) if st is None
                                   else moves.move(st, j, y))
                        self._count(y, r)
                        if r is not None and r > cur:
                            x, cur, st, improved = y, r, y_st, True
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
    cv = list(c.values)
    if side == "SCALE4":
        # coeff_i^(1/p) is the l^p' norm of c up to i: its running max at p = 1.
        if p > 1:
            pc = conjugate(p)
            cv = pows(list(itertools.accumulate(pows(cv, pc))), 1.0 / pc)
        else:
            cv = list(itertools.accumulate(cv, max))
    L = len(b)
    fns = _form_ratios(form, Instance(
        e, WeightSeq(b.start, (1.0,) * L), b,
        Kernel(RowSequenceKernel(WeightSeq(b.start, tuple(cv))), b.start, L)))
    if side == "SCALE3":
        return fns
    # SCALE4 searches x = a^p: STRONG's ratio at a = x^(1/p), its batch on
    # the grid raised to 1/p and its vertex ratios (x^(1/p) = x at a
    # vertex); STRONG's move evaluator moves a, not x, so it has none.
    to_a, ratio, batch = pow_for(1.0 / p), fns.ratio, fns.batch
    return fns._replace(
        ratio=lambda x: ratio(to_a(x)),
        batch=batch and (lambda grid: batch(grid._replace(
            base=to_a(grid.base), values=tuple(map(to_a, grid.values))))),
        moves=None)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    passed: bool
    estimates: Dict[str, float] = field(default_factory=dict)
    ratio_bounds: Tuple[float, float] = (0.0, 0.0)
    violations: tuple = ()
    trials: int = 0


def _random_sequences(inst: Instance, trials: int, seed: int) -> List[Tuple[float, ...]]:
    """The window values of each sample: 0.0 (one entry in five), 10**u with
    u uniform in [-2, 2], or 1.0 at one entry of a sample drawn all zero."""
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
        out.append(tuple(vals))
    return out


def _sample_lhs(form: str, inst: Instance, samples: Sequence[Tuple[float, ...]]
                ) -> List[float]:
    """The form's left-hand side at each sample, bit for bit the evaluator's:
    one `batch.lines_batch` whose grid coordinate is the sample index, and
    its root; where the kernel lines are not finite or the batch overflows,
    the evaluator on the same record and lines (`_lines_evaluator`), so the
    record is resolved once."""
    f = _form_record(form, inst)
    _, _, lines, lines_finite = _form_columns(f, inst)
    if lines_finite:
        parts = [(1, list(c)) for c in zip(*samples)]
        sums = lines_batch(f, inst, lines)(parts, len(samples))
        values = None if sums is None else root(inst.q)(sums[1])
        if values is not None:
            return values
    lhs = _lines_evaluator(f, inst, lines, lines_finite)
    return [lhs(list(a)) for a in samples]


def _check_chain(forms: Sequence[str], samples: Sequence[Tuple[float, ...]],
                 lhs: Dict[str, List[float]]) -> List[tuple]:
    """(f1, f2, x, y, a) for each sample a, in order, and each adjacent pair
    of the chain whose values x, y at a descend: x > y (1 + 1e-12).  lhs
    holds each form's values at the samples (`_sample_lhs`)."""
    return [(f1, f2, x, y, a)
            for k, a in enumerate(samples) for f1, f2 in zip(forms, forms[1:])
            if (x := lhs[f1][k]) > (y := lhs[f2][k]) * (1.0 + 1e-12) + 0.0]


def _ratio_bounds(values: Dict[str, float]) -> Tuple[float, float]:
    finite = [x for x in values.values() if x > 0 and math.isfinite(x)]
    if len(finite) < 2 or len(finite) != len(values):
        return (1.0, 1.0) if len(set(values.values())) <= 1 else (0.0, INF)
    return min(finite) / max(finite), max(finite) / min(finite)


# Per suite with sampled checks: whether (p, q) is in its regime (checked
# before samples are drawn) and the error where not, the pairs of forms that
# agree and the chains that ascend on every sample, the estimated forms, and
# those of them whose estimates must ascend (to 1e-9).
_SAMPLED = {
    "six": (lambda p, q: p <= 1 and q < INF, "the six-form suite needs p <= 1 and finite q",
            (), (("B1", "B2", "B3", "B4", "B6"), ("B3", "B5", "B6")),
            ("B1", "B2", "B3", "B4", "B5", "B6"), ()),
    "hux": (lambda p, q: p <= 1 and q < INF,
            "the sup-of-sequence suite needs p <= 1 and finite q",
            (("SB1", "SB2"), ("SB3", "SB4"), ("SB6", "SB7")),
            (("SB2", "SB4", "SB5", "SB8"), ("SB4", "SB7", "SB8")),
            ("SB1", "SB2", "SB3", "SB4", "SB5", "SB6", "SB7", "SB8"), ()),
    "kernel_main": (lambda p, q: p <= 1, "the three-form equivalence needs p <= 1", (),
                    (("WEAK", "GOP_DUAL", "STRONG"),), ("WEAK", "GOP_DUAL", "STRONG"),
                    ("WEAK", "GOP_DUAL", "STRONG")),
    "supremalpge": (lambda p, q: 1 <= p < INF and q < INF,
                    "the sigma-weighted suite needs 1 <= p < inf, q < inf", (),
                    (("CDPRIME", "CPRIME"),), ("SUP_ITER", "CPRIME", "CDPRIME"), ()),
}


def equivalence_suite(suite: str, inst: Instance, budget: int = 2000,
                      seed: int = 0, trials: int = 200) -> SuiteReport:
    """Run one of the theorem-backed equivalence suites on an instance."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1: {trials}")
    violations: List = []
    estimates: Dict[str, float] = {}
    samples: List[Tuple[float, ...]] = []

    if suite in _SAMPLED:
        regime, error, pairs, chains, estimated, ascending = _SAMPLED[suite]
        if not regime(inst.p, inst.q):
            raise ValueError(error)
        samples = _random_sequences(inst, trials, seed)
        lhs = {f: _sample_lhs(f, inst, samples)
               for f in dict.fromkeys(itertools.chain(*pairs, *chains))}
        for f1, f2 in pairs:
            violations += [(f1, f2, x, y, a)
                           for a, x, y in zip(samples, lhs[f1], lhs[f2])
                           if not _close(x, y, 1e-12)]
        for chain in chains:
            violations += _check_chain(chain, samples, lhs)
        for f in estimated:
            estimates[f] = best_constant(f, inst, "auto", budget, seed).estimate
        if not all(estimates[f1] <= estimates[f2] * (1 + 1e-9)
                   for f1, f2 in zip(ascending, ascending[1:])):
            violations.append(("constant-chain", estimates))
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
