"""Kernel representations, regularity diagnostics and kernel documents.

A kernel K(i, n) is defined for window pairs i <= n, is nonnegative and
finite, and is ideally nonincreasing in i and nondecreasing in n.  A
`Kernel` stores one orientation, its columns: cols[n][i] = K(i, n) for
i <= n (window offsets), the line the operator sum_{i <= n} K(i, n) a_i
reads.  The specs build their columns directly.  This module is the only
one that converts between the two triangle layouts, and the only one
that raises a triangle to a power: `transpose` turns a tabulated
kernel's document rows into columns once, and `rows_of` turns columns
into rows for the readers that run along a row: the backward forms
(reading their lines down the columns on every evaluation costs more; a
backward max form on a constant kernel reads only the diagonal), the
forward forms' view by coordinate, the ascent's moves and the general
regularity scan.

Every kernel triangle a caller reads, and whether its entries are
finite, comes from two views: `Kernel.powered(r)` (the columns at r,
the stored ones where r is None, and that triangle's finiteness flag)
and `Kernel.rows(r)` (the rows of `powered(r)`).  Each is derived once
per kernel and exponent and read by every caller: the forms'
evaluators, searches and ascent moves, the constants, the block
decompositions, the bridge and the regularity scans of U and of U^r
(`_regularity_scan`); none scans a view's finiteness again.  The
derived views are held in one module-level slot (`_views`) for one
kernel at a time, the last that asked, by identity and through a weak
reference: a kernel that asks next replaces them, and a kernel that is
collected takes them with it.  So memory is bounded by one kernel's
views, however many kernels a caller keeps alive; `Kernel.memo` keeps
no triangle.

The regularity constant is the smallest C with
K(i, n) <= C * (K(i, j) + K(j, n)) over all window triples i <= j <= n;
it is measured by scanning, never assumed.  For each pair (i, n) the scan
(`_regularity_scan`, of U's views or of U^r's) takes
K(i, n) / min_j (K(i, j) + K(j, n)): the minimum runs in C over a
kernel row and a kernel column, and it gives the same float as the max
over j, because correctly rounded division is monotone in the divisor.
So the scan is O(L^3) with an O(L^2) Python loop.  A constant kernel c
has the closed form c / (c + c) (0 when c = 0), the value the scan gives,
and a sup kernel U(i, n) = max u[i..n] the O(L^2) form
max_{i <= n} S / (S + min(u_i, u_n)) with S = U(i, n), the scan's value
bit for bit (`_sup_regularity`).

The module also parses and writes the kernel part of an instance
document (`kernel_spec`, `kernel_doc`); they, the materializer and the
oracle name the sequence kernels through one table, `SEQUENCE_KERNELS`.
A document's arrays of numbers are checked in C-level passes
(`doc_numbers`), and entry by entry only to name the first bad one.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .numerics import INF, ext_pow, finite, finite_floats, pow_for, pows
from .weights import WeightSeq

# The relative allowance of `Kernel.power_regularity_bound` for rounding:
# unpadded, the float C(U)^r fell below the scan of U^r in 79 of 13,650
# seeded (kernel, r) cases, by at most 2.2e-16 relative.
POWER_BOUND_PAD = 1.0 + 2.0 ** -40


@dataclass(frozen=True)
class ConstantKernel:
    c: float


@dataclass(frozen=True)
class TabulatedKernel:
    """Explicit entries K(i, n) for i <= n; rows indexed from `start`."""

    start: int
    entries: tuple  # tuple of rows; row for i holds K(i, n), n = i..top


@dataclass(frozen=True)
class SupSequenceKernel:
    """K(i, n) = max of u_j over i <= j <= n; always monotone and regular."""

    u: WeightSeq


@dataclass(frozen=True)
class RowSequenceKernel:
    """K(i, n) = u_i, constant along rows; not monotone in general."""

    u: WeightSeq


# Each sequence kernel by its tag in instance documents and in FORM_TABLE.
SEQUENCE_KERNELS = {"sup": SupSequenceKernel, "row": RowSequenceKernel}


@dataclass(frozen=True)
class PowerKernel:
    base: "object"
    r: float


def _constant_along(spec) -> Tuple[bool, bool]:
    """Whether the spec's entries are constant along its rows, K(i, n) =
    K(i, i) (a constant or row kernel, or a power of one), and whether
    also along its columns (a constant kernel or a power of one)."""
    if isinstance(spec, PowerKernel):
        return _constant_along(spec.base)
    return (isinstance(spec, (ConstantKernel, RowSequenceKernel)),
            isinstance(spec, ConstantKernel))


def _materialize(spec, start: int, length: int) -> List[List[float]]:
    """Upper-triangular matrix columns cols[n][i] = K(start + i, start + n),
    i <= n."""
    if isinstance(spec, ConstantKernel):
        if spec.c < 0 or math.isinf(spec.c) or math.isnan(spec.c):
            raise ValueError("constant kernel value must be finite and nonnegative")
        return [[float(spec.c)] * (n + 1) for n in range(length)]
    if isinstance(spec, TabulatedKernel):
        if spec.start != start or len(spec.entries) != length:
            raise ValueError("tabulated kernel does not match the window")
        rows = []
        for i, row in enumerate(spec.entries):
            row = list(map(float, row))
            if len(row) != length - i:
                raise ValueError(f"row {i} must have {length - i} entries")
            # A finite sum has finite entries; only an overflowing sum
            # needs the entries scanned.
            if not ((math.isfinite(sum(row)) or finite(row)) and min(row) >= 0):
                raise ValueError("kernel entries must be finite and nonnegative")
            rows.append(row)
        return transpose(rows)
    if isinstance(spec, tuple(SEQUENCE_KERNELS.values())):
        u = list(spec.u.values)
        if spec.u.start != start or len(u) != length:
            raise ValueError("kernel sequence does not match the window")
        if isinstance(spec, RowSequenceKernel):
            return [u[:n + 1] for n in range(length)]
        # Column n folds u_n into column n - 1 from the left, as
        # accumulate(u[i:], max) does along row i.
        cols = [u[:1]]
        for un in u[1:]:
            cols.append(list(map(max, cols[-1], itertools.repeat(un))) + [un])
        return cols
    if isinstance(spec, PowerKernel):
        if not 0 < spec.r < INF:
            raise ValueError("power kernel exponent must be positive and finite")
        base = _materialize(spec.base, start, length)
        return list(map(pow_for(spec.r), base))
    raise TypeError(f"unknown kernel spec: {spec!r}")


def transpose(rows: List[List[float]]) -> List[List[float]]:
    """Columns of an upper triangle: cols[n][i] = rows[i][n - i], i <= n.
    Row i, shifted right by i places, holds its entries at their n; the
    columns of those full rows are cut at the diagonal."""
    pad = [0.0] * len(rows)
    full = zip(*[pad[:i] + row for i, row in enumerate(rows)])
    return [list(col[:n + 1]) for n, col in enumerate(full)]


def rows_of(cols: List[List[float]]) -> List[List[float]]:
    """Rows of an upper triangle, `transpose` inverted: rows[i][n - i] =
    cols[n][i], i <= n.  Row i is the i-th entry of each column from
    column i on."""
    full = itertools.zip_longest(*cols)
    return [list(row[i:]) for i, row in enumerate(full)]


# The views (`Kernel.powered`, `Kernel.rows`) of the last kernel that asked
# for one: a weak reference to it and its views by key.
_slot: list = [None, {}]


def _views(kernel: "Kernel") -> dict:
    """The views held for this kernel: the slot's, where it holds this
    kernel's (by identity: `Kernel.__eq__` compares specs), else a new
    empty dict that replaces them.  The caller fills the dict it gets,
    which is its kernel's even after another kernel has replaced it, so
    two callers that interleave can derive a view twice, never read
    another kernel's."""
    ref, views = _slot
    if ref is None or ref() is not kernel:
        views = {}
        _slot[:] = weakref.ref(kernel, _release), views
    return views


def _release(ref: weakref.ref) -> None:
    """Empty the slot when the kernel whose views it holds is collected."""
    if _slot[0] is ref:
        _slot[:] = None, {}


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    violations: tuple  # (i, j, n) triples; j = i + 1 marks first-variable steps


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    worst_chain: tuple
    worst_ratio: float
    note: str = "consecutive-index chains only"


def check_chain_args(alpha: float, c: float, max_len: Optional[int],
                     length: int) -> None:
    """Raise ValueError unless `Kernel.chain_alpha_check` takes these."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if not c > 0:
        raise ValueError("c must be positive")
    if max_len is not None and not (2 <= max_len <= length):
        raise ValueError("max_len must lie in [2, window length]")


def kept(fn):
    """fn, computed once per holder and arguments: its value is kept in
    the holder's `memo` under fn's name and its other arguments.  The
    holder, a `Kernel` or an `Instance`, is the first of the first two
    arguments with a memo; arguments are passed by position."""
    name = fn.__name__

    @functools.wraps(fn)
    def keep(*args):
        holder = args[0] if hasattr(args[0], "memo") else args[1]
        key = (name,) + tuple(a for a in args if a is not holder)
        memo = holder.memo
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]
    return keep


class Kernel:
    """Evaluable kernel on a window, its diagnostics kept in `memo` (`kept`).

    A new kernel, from `power` or `reversed_` too, starts with an empty
    memo.  Its derived triangles, `powered(r)` and `rows(r)`, are kept
    out of the memo, in the module's one slot.  Two kernels are equal
    when their spec, start and length are.
    `finite` says whether every entry is finite: every spec but a power
    is validated finite, and a power can overflow to inf.

    `rows_constant` says, from the spec, whether the entries are constant
    along rows, K(i, n) = K(i, i), and `constant` whether they are also
    constant along columns.  On such a kernel the inner terms of a
    forward form (a backward max one where it is constant) are one running
    reduction over the diagonal (see `oracle`), and a constant one has no
    monotonicity violation.
    """

    def __init__(self, spec, start: int, length: int):
        if length < 1:
            raise ValueError("window must contain at least one index")
        self.spec = spec
        self.start = int(start)
        self.length = int(length)
        self._cols = _materialize(spec, self.start, self.length)
        self.finite = not isinstance(spec, PowerKernel) or finite(*self._cols)
        self.rows_constant, self.constant = _constant_along(spec)
        self.memo: Dict[tuple, object] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return ((self.spec, self.start, self.length)
                == (other.spec, other.start, other.length))

    def __hash__(self) -> int:
        return hash((self.spec, self.start, self.length))

    @property
    def stop(self) -> int:
        return self.start + self.length - 1

    @property
    def columns(self) -> List[List[float]]:
        """cols[n][i] = K(start + i, start + n) for window offsets i <= n:
        the stored orientation, to be read and never changed."""
        return self._cols

    def powered(self, r: Optional[float] = None) -> Tuple[List[List[float]], bool]:
        """The columns at r and whether every entry of that triangle is
        finite: the stored columns and `finite` where r is None, else
        the stored columns raised to r (`numerics.pow_for`, also at
        r = 1, where it turns -0.0 into +0.0), a view held in the module's
        slot (see `_views`).  To be read and never changed."""
        if r is None:
            return self._cols, self.finite
        views = _views(self)
        key = ("powered", r)
        if key not in views:
            cols = list(map(pow_for(r), self._cols))
            # No entry is nan, so the triangle is finite where its max is.
            views[key] = cols, max(map(max, cols)) < INF
        return views[key]

    def rows(self, r: Optional[float] = None) -> List[List[float]]:
        """`rows_of` the columns at r, `powered(r)`: a view held in the
        module's slot, to be read and never changed."""
        views = _views(self)
        key = ("rows", r)
        if key not in views:
            views[key] = rows_of(self.powered(r)[0])
        return views[key]

    def eval(self, i: int, n: int) -> float:
        if not (self.start <= i <= n <= self.stop):
            raise IndexError(f"kernel index out of range: ({i}, {n})")
        return self._cols[n - self.start][i - self.start]

    @kept
    def monotonicity_check(self) -> MonotonicityReport:
        """Violations (i, i+1, n) of K(i, n) >= K(i+1, n) and (i, n, n+1) of
        K(i, n) <= K(i, n+1), ordered by i, then n, the first kind before
        the second for the same (i, n).  A constant kernel, and a power of
        one, has none."""
        if self.constant:
            return MonotonicityReport(ok=True, violations=())
        cols, s = self._cols, self.start
        found = []
        for n, col in enumerate(cols):
            found += [(i, n, 0) for i in itertools.compress(
                itertools.count(), map(operator.lt, col, col[1:]))]
            if n + 1 < self.length:
                found += [(i, n, 1) for i in itertools.compress(
                    itertools.count(), map(operator.gt, col, cols[n + 1]))]
        found.sort()
        bad = tuple((s + i, s + i + 1, s + n) if kind == 0 else
                    (s + i, s + n, s + n + 1) for i, n, kind in found)
        return MonotonicityReport(ok=not bad, violations=bad)

    @kept
    def regularity_constant(self) -> float:
        """Max over triples i <= j <= n of K(i,n) / (K(i,j) + K(j,n)):
        `_regularity_scan` of the stored columns and their rows, except
        that a constant kernel c gives c / (c + c) directly (0 when
        c = 0), and a sup kernel its own O(L^2) form
        (`_sup_regularity`).  +inf means the kernel is not regular on
        this window.
        """
        cols = self._cols
        if isinstance(self.spec, ConstantKernel):
            c = cols[0][0]
            return c / (c + c) if c != 0 else 0.0
        if isinstance(self.spec, SupSequenceKernel):
            return _sup_regularity(cols)
        return _regularity_scan(cols, self.rows())

    def power(self, r: float) -> "Kernel":
        return Kernel(PowerKernel(self.spec, r), self.start, self.length)

    @kept
    def power_regularity(self, r: float) -> float:
        """The regularity constant of U^r, kept per exponent as a float:
        the scan of the views `powered(r)` and `rows(r)`, which is
        `power(r).regularity_constant()` (the same columns; a power spec
        takes no closed form).  U^1 is U entry for entry (its power only
        adds +0.0), so r = 1 is the kernel's own constant."""
        if r == 1.0:
            return self.regularity_constant()
        if not 0 < r < INF:
            raise ValueError("power kernel exponent must be positive and finite")
        return _regularity_scan(self.powered(r)[0], self.rows(r))

    def power_regularity_bound(self, r: float) -> float:
        """An upper bound on `power_regularity(r)`, 0 < r <= 1, that scans
        no U^r: the kept value where there is one (r = 1 included), else
        C(U)^r padded by `POWER_BOUND_PAD`, or inf where that is unsound.

        t^r is subadditive for 0 < r <= 1 (Hardy, Littlewood and Polya,
        *Inequalities*, 1934), so U(i, n) <= C (U(i, j) + U(j, n)) gives
        U(i, n)^r <= C^r (U(i, j)^r + U(j, n)^r): C(U^r) <= C(U)^r.  The
        two scans round differently by a few ulps, which the pad covers.
        It is inf where the rounding is larger: where a sum of two entries
        of U overflows, so that U's scan skips a pair that U^r's scan
        counts, and where the smallest positive entry's power is subnormal.
        """
        if r == 1.0 or ("power_regularity", r) in self.memo:
            return self.power_regularity(r)
        if not 0 < r < 1:
            return INF
        cols = self._cols
        top = max(map(max, cols))
        low = min(filter(None, itertools.chain.from_iterable(cols)), default=1.0)
        if not (2.0 * top < INF and ext_pow(low, r) >= sys.float_info.min):
            return INF
        return ext_pow(self.regularity_constant(), r) * POWER_BOUND_PAD

    def chain_alpha_check(self, alpha: float, c: float, max_len: int) -> ChainReport:
        """Check K(x1, xm) <= c * (sum K(x_t, x_{t+1})^alpha)^(1/alpha).

        Chains run over consecutive window indices x1 < x1+1 < ... < xm
        with 3 <= m <= max_len; length-2 chains are trivially tight and
        carry no information, nor does a chain whose right-hand side is
        inf (see `regularity_constant`).  Full chain enumeration would be
        exponential and the blockwise estimates only ever use consecutive
        runs.
        """
        check_chain_args(alpha, c, max_len, self.length)
        cols = self._cols
        steps = pows([col[-2] for col in cols[1:]], alpha)  # K(x, x+1)^alpha
        worst_ratio = 0.0
        worst_chain: Tuple[int, ...] = ()
        for m in range(3, max_len + 1):
            for x in range(self.length - m + 1):
                chain = tuple(range(self.start + x, self.start + x + m))
                lhs = cols[x + m - 1][x]
                rhs = ext_pow(sum(steps[x:x + m - 1], 0.0), 1.0 / alpha)
                if lhs == 0.0 or rhs == INF:
                    continue
                ratio = lhs / rhs if rhs > 0 else INF
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    worst_chain = chain
        return ChainReport(ok=worst_ratio <= c, worst_chain=worst_chain,
                           worst_ratio=worst_ratio)

    def reversed_(self) -> "Kernel":
        """Index-change transform K~(i, n) = K(-n, -i) on the negated window.

        A power is the same power of the reversed base; a row or tabulated
        kernel is tabulated, row i being column L-1-i read upward.
        """
        spec, new_start = self.spec, -self.stop
        if isinstance(spec, ConstantKernel):
            return Kernel(spec, new_start, self.length)
        if isinstance(spec, SupSequenceKernel):
            u = spec.u
            ru = WeightSeq(-u.stop, tuple(reversed(u.values)))
            return Kernel(SupSequenceKernel(ru), new_start, self.length)
        if isinstance(spec, PowerKernel):
            return Kernel(spec.base, self.start, self.length).reversed_().power(spec.r)
        rows = tuple(tuple(reversed(col)) for col in reversed(self._cols))
        return Kernel(TabulatedKernel(new_start, rows), new_start, self.length)


def _regularity_scan(cols: List[List[float]], rows: List[List[float]]) -> float:
    """The regularity constant of the triangle with these columns and
    rows, scanned (see the module docstring).  0/0 counts as 0 and
    positive/0 as +inf; a pair whose smallest sum is inf (an overflowed
    power) bounds nothing, as inf <= C * inf for every C > 0, and is
    skipped like a zero K(i, n)."""
    worst = 0.0
    for i, row in enumerate(rows):
        for num, col in zip(row, cols[i:]):
            if num == 0.0:
                continue
            # K(i, j) + K(j, n) for i <= j <= n: map stops at col's end.
            den = min(map(operator.add, row, col[i:]))
            if den < INF:
                ratio = num / den if den > 0 else INF
                if ratio > worst:
                    worst = ratio
    return worst


def _sup_regularity(cols: List[List[float]]) -> float:
    """The regularity constant of a sup kernel U(i, n) = max u[i..n] from
    its columns, in O(L^2).

    For i <= j <= n one of U(i, j) and U(j, n) is S = U(i, n), and the
    other covers u_i or u_n, so it is at least min(u_i, u_n); j = i and
    j = n reach that.  So min_j (U(i, j) + U(j, n)) = S + min(u_i, u_n),
    after rounding too, as rounding is monotone.  S = 0 exactly for the
    i past the last positive u_j, j <= n, which the scan skips; a pair
    whose sum is inf gives the ratio 0, which raises no maximum.
    """
    diag = [col[-1] for col in cols]
    worst, top = 0.0, 0  # top: 1 + the last j <= n with u_j > 0
    for n, col in enumerate(cols):
        un = diag[n]
        if un > 0.0:
            top = n + 1
        if top:
            dens = map(operator.add, col[:top], map(min, diag, itertools.repeat(un)))
            worst = max(worst, max(map(operator.truediv, col, dens)))
    return worst


def constant_kernel(c: float, start: int, length: int) -> Kernel:
    return Kernel(ConstantKernel(c), start, length)


def tabulated_kernel(rows, start: int, length: int) -> Kernel:
    return Kernel(TabulatedKernel(start, tuple(tuple(r) for r in rows)), start, length)


# ---------------------------------------------------------------------------
# Instance documents: kernel specs and their fields, parsed and written.

class InstanceError(ValueError):
    """Malformed instance document; carries the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field {field!r}: {message}")
        self.field = field


def doc_number(value, field: str, allow_inf: bool = False) -> float:
    """A finite nonnegative number field; "inf" too when allow_inf."""
    if allow_inf and value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(field, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise InstanceError(field, "integer too large for a float") from None
    if math.isnan(x) or math.isinf(x):
        raise InstanceError(field, f"expected a finite number, got {value!r}")
    if x < 0:
        raise InstanceError(field, f"expected a nonnegative number, got {value!r}")
    return x


def doc_weight(doc, field: str, start: int, length: int) -> WeightSeq:
    """A weight-sequence field: an array of `length` nonnegative numbers."""
    if not isinstance(doc, list):
        raise InstanceError(field, "expected an array")
    if len(doc) != length:
        raise InstanceError(field, f"length {len(doc)} does not match "
                                   f"window length {length}")
    return WeightSeq(start, doc_numbers(doc, field))


def doc_numbers(doc: list, field: str) -> tuple:
    """The entries of an array of numbers, as `doc_number` reads each one
    (field[i] for entry i).  The array is checked in C-level passes; entry
    by entry only where that fails, which raises the first bad entry's
    error."""
    xs = finite_floats(doc)
    if xs is None:
        xs = tuple(doc_number(x, f"{field}[{i}]") for i, x in enumerate(doc))
    return xs


def kernel_spec(doc, field: str, start: int, length: int):
    """The kernel spec of a kernel document on the window; `kernel_doc` inverts it."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise InstanceError(field, "expected an object with a 'type' tag")
    tag = doc["type"]
    if tag == "constant":
        return ConstantKernel(doc_number(doc.get("c"), f"{field}.c"))
    if tag == "tabulated":
        rows = doc.get("entries")
        if not isinstance(rows, list) or len(rows) != length:
            raise InstanceError(f"{field}.entries",
                                f"expected {length} rows (one per window index)")
        out = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != length - i:
                raise InstanceError(
                    f"{field}.entries[{i}]",
                    f"row must have {length - i} entries (upper triangle)")
            out.append(doc_numbers(row, f"{field}.entries[{i}]"))
        return TabulatedKernel(start, tuple(out))
    if tag in SEQUENCE_KERNELS:
        u = doc_weight(doc.get("u"), f"{field}.u", start, length)
        return SEQUENCE_KERNELS[tag](u)
    if tag == "power":
        r = doc_number(doc.get("r"), f"{field}.r")
        if not r > 0:
            raise InstanceError(f"{field}.r", "expected a positive number")
        return PowerKernel(kernel_spec(doc.get("base"), f"{field}.base",
                                       start, length), r)
    raise InstanceError(f"{field}.type",
                        f"unknown kernel tag {tag!r}; expected one of "
                        "constant, tabulated, sup, row, power")


def kernel_doc(spec) -> dict:
    """The JSON document of a kernel spec."""
    if isinstance(spec, ConstantKernel):
        return {"type": "constant", "c": spec.c}
    if isinstance(spec, TabulatedKernel):
        return {"type": "tabulated", "entries": [list(r) for r in spec.entries]}
    for tag, kind in SEQUENCE_KERNELS.items():
        if isinstance(spec, kind):
            return {"type": tag, "u": list(spec.u.values)}
    if isinstance(spec, PowerKernel):
        return {"type": "power", "base": kernel_doc(spec.base), "r": spec.r}
    raise TypeError(f"unknown kernel spec: {spec!r}")
