"""Closed-form characterizing constants and regime-driven characterization.

Two families are computed: the A-constants characterizing the weighted
kernel inequality, and the D-constants characterizing the combined
supremum/kernel inequality.  Every sum and supremum is restricted to the
instance window; partial sums "from -infinity" are clipped at the window
bottom (reciprocal powers of the zero extension would otherwise be
infinite for every instance), which is the documented finite-support
reading of each formula.

The kernel's columns and whether every kernel entry is finite are fixed
data: `characterize` takes them once (`_lines`) and passes them to every
constant it computes, as a standalone `condition_A`/`condition_D` does
for its one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .instance import Instance
from .kernels import transpose
from .numerics import (RegimeLabel, conjugate, ext_dot, ext_muls, ext_pow,
                       finite, mul_for, pows, regime, sup0)
from .weights import sigma_p_running, tail_sum


def _lines(inst: Instance) -> Tuple[List[List[float]], bool]:
    """The kernel columns of an instance, and whether every kernel entry is
    finite."""
    rows = inst.kernel.rows
    return transpose(rows), finite(*rows)


def _uq_tail(inst: Instance, n: int, q: float, strict: bool = False) -> float:
    """Sum over i >= n (i > n when strict) of U(n, i)^q w_i."""
    m = n - inst.start
    return ext_dot(pows(inst.kernel.rows[m][strict:], q), inst.w.values[m + strict:])


def _uq_tails(inst: Instance, q: float) -> List[float]:
    """`_uq_tail(inst, n, q)` for every window index n."""
    return [_uq_tail(inst, n, q) for n in inst.v.indices()]


def _v_heads(inst: Instance, pc: float) -> List[float]:
    """Per window index n, the sum over i <= n of v_i^(1-p').

    A running sum adds in `sum`'s order: the terms are never -0.0, so
    starting from the first term equals adding it to 0.0, and once a
    term is inf every later prefix is inf.
    """
    return list(itertools.accumulate(pows(inst.v.values, 1.0 - pc)))


def _u_heads_dual(inst: Instance, cols, pc: float) -> List[float]:
    """Per window index n, the sum over i <= n of U(i, n)^p' v_i^(1-p')."""
    vd = pows(inst.v.values, 1.0 - pc)
    return [ext_dot(pows(col, pc), vd) for col in cols]


def _vinv_cols(inst: Instance, cols, rows_finite: bool, reduce) -> List[float]:
    """Per window index n, reduce over i <= n of U(i, n) v_i^-1 (sum or sup0;
    a column is never empty, so `sum` needs no float start)."""
    vinv = pows(inst.v.values, -1.0)
    mul = mul_for(vinv, rest_finite=rows_finite)
    return [reduce(map(mul, col, vinv)) for col in cols]


def _pinf_sum(inst: Instance, cols, rows_finite: bool) -> float:
    """(sum_n w_n (sum_{i <= n} U(i, n) v_i^-1)^q)^(1/q): A_3 and D_4."""
    q = inst.q
    return ext_pow(ext_dot(pows(_vinv_cols(inst, cols, rows_finite, sum), q),
                           inst.w.values), 1.0 / q)


def _pinf_qinf_sup(inst: Instance, cols, rows_finite: bool) -> float:
    """sup over i <= n of v_i^-1 U(i, n) w_n: A_6, and calA_3 of the bridge."""
    return sup0(ext_muls(inst.w.values, _vinv_cols(inst, cols, rows_finite, sup0)))


def _row_sups(inst: Instance, rows_finite: bool, ws: List[float]) -> List[float]:
    """Per window index n, the sup over i >= n of U(n, i) ws_i."""
    mul = mul_for(ws, rest_finite=rows_finite)
    return [sup0(map(mul, row, ws[n:])) for n, row in enumerate(inst.kernel.rows)]


def _require(cond: bool, k: str, valid: str):
    if not cond:
        raise ValueError(f"{k} is only defined for {valid}")


def _w_tails(inst: Instance) -> List[float]:
    """`tail_sum(w, n)` for every window index n."""
    return [tail_sum(inst.w, n) for n in inst.w.indices()]


def _tail_head_sum(inst: Instance, cols, tails, r: float, e: float,
                   heads, outer: float) -> float:
    """(sum_n t_n^r w_n sup_{i <= n} U(i, n)^e h_i)^outer, with per-index
    lists t and h: A_11, A_12, A_13, D_5 and D_6."""
    heads_finite = finite(heads)
    sups = [sup0(map(mul_for(ce, rest_finite=heads_finite), ce, heads))
            for ce in (pows(col, e) for col in cols)]
    return ext_pow(ext_dot(ext_muls(pows(tails, r), inst.w.values), sups), outer)


def condition_A(k: int, inst: Instance) -> float:
    """The k-th characterizing constant of the kernel inequality, k = 1..13.

    Each per-index quantity (tail sums, dual head sums, powers of v) is
    computed once per call, so every constant costs O(L^2).
    """
    return _condition_A(k, inst, *_lines(inst))


def _condition_A(k: int, inst: Instance, cols, rows_finite: bool) -> float:
    p, q = inst.p, inst.q
    v, w = inst.v.values, inst.w.values
    qinf = math.isinf(q)
    pinf = math.isinf(p)

    # In the p <= 1 regime the v-exponent carries a 1/p so that the
    # constants scale like the best constant itself (v -> lam*v scales
    # both by lam^(-1/p)); at p = 1 this is the classical formula.
    if k == 1:
        _require(p <= 1 and not qinf, "A_1", "p <= 1 and finite q")
        return sup0(ext_muls(pows(v, -1.0 / p), pows(_uq_tails(inst, q), 1.0 / q)))
    if k == 2:
        _require(p <= 1 and qinf, "A_2", "p <= 1 and q = inf")
        return sup0(ext_muls(pows(v, -1.0 / p), _row_sups(inst, rows_finite, w)))
    if k == 3:
        _require(pinf and 1 <= q and not qinf, "A_3", "p = inf and 1 <= q < inf")
        return _pinf_sum(inst, cols, rows_finite)
    if k == 4:
        _require(1 < p and not pinf and q == 1, "A_4", "1 < p < inf and q = 1")
        pc = conjugate(p)
        return ext_pow(ext_dot(pows(_uq_tails(inst, 1.0), pc), pows(v, 1.0 - pc)),
                       1.0 / pc)
    if k == 5:
        _require(1 < p and not pinf and qinf, "A_5", "1 < p < inf and q = inf")
        pc = conjugate(p)
        return sup0(ext_muls(w, pows(_u_heads_dual(inst, cols, pc), 1.0 / pc)))
    if k == 6:
        _require(pinf and qinf, "A_6", "p = q = inf")
        return _pinf_qinf_sup(inst, cols, rows_finite)
    if k == 7:
        _require(1 < p <= q and not qinf, "A_7", "1 < p <= q < inf")
        pc = conjugate(p)
        return sup0(ext_muls(pows(_w_tails(inst), 1.0 / q),
                             pows(_u_heads_dual(inst, cols, pc), 1.0 / pc)))
    if k == 8:
        _require(1 < p <= q and not qinf, "A_8", "1 < p <= q < inf")
        pc = conjugate(p)
        return sup0(ext_muls(pows(_uq_tails(inst, q), 1.0 / q),
                             pows(_v_heads(inst, pc), 1.0 / pc)))
    if k == 9:
        _require(1 < p and not pinf and 0 < q < p, "A_9", "1 < p < inf and 0 < q < p")
        pc = conjugate(p)
        r = q / (p - q)
        return ext_pow(ext_dot(ext_muls(pows(_w_tails(inst), r), w),
                               pows(_u_heads_dual(inst, cols, pc), (p - 1.0) * r)),
                       (p - q) / (p * q))
    if k == 10:
        _require(1 < q < p and not pinf, "A_10", "1 < q < p < inf")
        pc = conjugate(p)
        return ext_pow(ext_dot(ext_muls(pows(_uq_tails(inst, q), p / (p - q)),
                                        pows(v, 1.0 - pc)),
                               pows(_v_heads(inst, pc), p * (q - 1.0) / (p - q))),
                       (p - q) / (p * q))
    if k == 11:
        _require(1 < p and not pinf and 0 < q < p, "A_11", "1 < p < inf and 0 < q < p")
        pc = conjugate(p)
        r = q / (p - q)
        return _tail_head_sum(inst, cols, _uq_tails(inst, q), r, q,
                              pows(_v_heads(inst, pc), (p - 1.0) * r),
                              (p - q) / (p * q))
    if k in (12, 13):
        _require(p <= 1 and 0 < q < p, f"A_{k}", "p <= 1 and 0 < q < p")
        qc = conjugate(q)  # negative since q < 1
        vq = pows(v, qc / p)
        if k == 12:
            return _tail_head_sum(inst, cols, _w_tails(inst), -qc, -qc, vq, -1.0 / qc)
        return _tail_head_sum(inst, cols, _uq_tails(inst, q), -qc, q, vq, -1.0 / qc)
    raise ValueError(f"unknown A-constant index: {k}")


def condition_D(k: int, inst: Instance) -> float:
    """The k-th characterizing constant of the supremum inequality, k = 1..6.

    Like `condition_A`, each per-index quantity is computed once per call.
    """
    return _condition_D(k, inst, *_lines(inst))


def _condition_D(k: int, inst: Instance, cols, rows_finite: bool) -> float:
    p, q = inst.p, inst.q
    v, w = inst.v.values, inst.w.values
    qinf = math.isinf(q)
    pinf = math.isinf(p)

    if k == 1:
        _require(1 <= p <= q and not qinf, "D_1", "1 <= p <= q < inf")
        return sup0(ext_muls(sigma_p_running(inst.v, p),
                             pows(_uq_tails(inst, q), 1.0 / q)))
    if k == 2:
        _require(1 <= p and not pinf and qinf, "D_2", "1 <= p < q = inf")
        return sup0(ext_muls(sigma_p_running(inst.v, p),
                             _row_sups(inst, rows_finite, pows(w, 1.0 / p))))
    if k == 3:
        _require(pinf and qinf, "D_3", "p = q = inf")
        return sup0(ext_muls(pows(v, -1.0), _row_sups(inst, rows_finite, pows(w, 0.0))))
    if k == 4:
        _require(pinf and not qinf, "D_4", "0 < q < p = inf")
        return _pinf_sum(inst, cols, rows_finite)
    if k in (5, 6):
        _require(1 <= p and not pinf and 0 < q < p, f"D_{k}", "1 <= p < inf and 0 < q < p")
        r = q / (p - q)
        sr = pows(sigma_p_running(inst.v, p), -r)
        outer = (p - q) / (p * q)
        if k == 5:
            return _tail_head_sum(inst, cols, _w_tails(inst), r, p * r, sr, outer)
        return _tail_head_sum(inst, cols, _uq_tails(inst, q), r, q, sr, outer)
    raise ValueError(f"unknown D-constant index: {k}")


@dataclass(frozen=True)
class ConstantsReport:
    regime: RegimeLabel
    constants: Dict[str, float] = field(default_factory=dict)
    predicted_kernel: Optional[float] = None
    predicted_sup: Optional[float] = None
    regularity: float = 0.0
    advisories: tuple = ()

    @property
    def predicted_C(self) -> Optional[float]:
        """Prediction for the best constant of the kernel inequality."""
        return self.predicted_kernel


# The A-constants of each label: small-p labels at p <= 1 (K_I, K_II and
# K_X occur only at p = 1, where the small-p label applies), kernel labels.
_A_PLAN = {
    "P_LE1_Q_GE_P": (1,), "P_LE1_Q_INF": (2,), "P_LE1_Q_LT_P": (12, 13),
    "K_III": (3,), "K_IV": (4,), "K_V": (5,), "K_VI": (6,), "K_VII": (7, 8),
    "K_VIII": (9, 10), "K_IX": (9, 11),
}
_D_PLAN = {
    "S_I": (1,), "S_II": (2,), "S_III": (3,), "S_IV": (4,), "S_V": (5, 6),
}


def characterize(inst: Instance) -> ConstantsReport:
    """Select the (p, q) regime and compute everything it requires.

    predicted_kernel is the theorem-side prediction for the best constant
    of the kernel inequality; predicted_sup for the supremum inequality.
    Either may be None outside the covered parameter ranges.
    """
    label = regime(inst.exponents)
    c_star = inst.kernel.regularity_constant()
    advisories = []
    if math.isinf(c_star):
        advisories.append("kernel is not regular on this window; "
                          "theorem-side predictions are advisory")
    if not inst.kernel.monotonicity_check().ok:
        advisories.append("kernel violates monotonicity; regularity "
                          "constant is advisory")

    constants: Dict[str, float] = {}
    lines = _lines(inst)
    predicted_kernel = None
    predicted_sup = None

    ks = _A_PLAN.get(label.small_p_case if inst.p <= 1 else label.kernel_case)
    if ks is None:
        advisories.append("no closed-form characterization for this "
                          "(p, q); kernel-side prediction omitted")
    else:
        vals = [_condition_A(k, inst, *lines) for k in ks]
        for k, val in zip(ks, vals):
            constants[f"A_{k}"] = val
        predicted_kernel = sum(vals, 0.0)
        if inst.p <= 1:
            # The supremum inequality shares this characterization.
            predicted_sup = predicted_kernel

    if inst.p >= 1:
        ds = _D_PLAN.get(label.sup_case)
        if ds is not None:
            vals = [_condition_D(k, inst, *lines) for k in ds]
            for k, val in zip(ds, vals):
                constants[f"D_{k}"] = val
            predicted_sup = sum(vals, 0.0)

    return ConstantsReport(regime=label, constants=constants,
                           predicted_kernel=predicted_kernel,
                           predicted_sup=predicted_sup,
                           regularity=c_star, advisories=tuple(advisories))
