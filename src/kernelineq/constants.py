"""Closed-form characterizing constants and regime-driven characterization.

Two families are computed: the A-constants characterizing the weighted
kernel inequality, and the D-constants characterizing the combined
supremum/kernel inequality.  Every sum and supremum is restricted to the
instance window; partial sums "from -infinity" are clipped at the window
bottom (reciprocal powers of the zero extension would otherwise be
infinite for every instance), which is the documented finite-support
reading of each formula.

At p = inf every form is nondecreasing in the test sequence a, and
sup_n a_n v_n <= 1 means a <= 1/v, so a best constant is the form's
left-hand side at a = 1/v, which `oracle._at_top` evaluates in range:
D_4 is GOP_DUAL's, A_6 is WEAK's, and A_3 is D_4 as A_8 is D_1.  D_3 is
the one p = inf constant with a formula of its own.  Every constant
reads the kernel's stored columns, and none derives its rows: the tail
sums along a row (`_uq_tails`) are added up down the columns in the
row's own order, and the q = inf double suprema over the pairs n <= i
(`_pair_sup`) are taken one column at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .instance import Instance
from .numerics import (RegimeLabel, conjugate, ext_dot, ext_muls, ext_pow,
                       finite, mul_for, pow_for, pows, regime, sup0)
from .oracle import _at_top, _evaluator
from .weights import sigma_p_running, sigma_terms, tail_sum


def _uq_tails(inst: Instance, q: float, strict: bool = False) -> List[float]:
    """Per window index n, the sum over i >= n (i > n when strict) of
    U(n, i)^q w_i.

    Column i of U^q, times w_i, is added into the sums of n <= i (n < i
    when strict) in ascending i, so each sum adds its terms left to right
    from 0.0, as the sum along row n would.  The product rule is picked
    per column: a power that overflowed to inf takes ext_mul.
    """
    sums = [0.0] * inst.length
    for i, (col, wi) in enumerate(zip(map(pow_for(q), inst.kernel.columns),
                                      inst.w.values)):
        k = i + 1 - strict
        sums[:k] = map(operator.add, sums[:k],
                       map(mul_for(col), col, itertools.repeat(wi)))
    return sums


def _u_heads_dual(inst: Instance, pc: float) -> List[float]:
    """Per window index n, the sum over i <= n of U(i, n)^p' v_i^(1-p')."""
    vd, power = sigma_terms(inst.v, inst.p), pow_for(pc)
    return [ext_dot(power(col), vd) for col in inst.kernel.columns]


def _pair_sup(inst: Instance, hs: List[float], ws: List[float]) -> float:
    """sup_n h_n sup_{i >= n} U(n, i) ws_i, as the max over the pairs
    n <= i of h_n (U(n, i) ws_i), one kernel column i at a time.

    For h >= 0, rounding h * x is monotone in x, so fl(h * max x) is the
    max of fl(h * x): the value the row suprema give.  h is multiplied
    with operator.mul only where every h_n is positive and finite: an h_n
    that underflowed to 0 may meet a product that overflowed to inf.
    """
    mul_u = mul_for(ws, rest_finite=inst.kernel.finite)
    mul_h = mul_for(hs, rest_finite=min(hs) > 0.0)
    return sup0(max(map(mul_h, hs, map(mul_u, col, itertools.repeat(wi))))
                for col, wi in zip(inst.kernel.columns, ws))


def _require(cond: bool, k: str, valid: str):
    if not cond:
        raise ValueError(f"{k} is only defined for {valid}")


def _w_tails(inst: Instance) -> List[float]:
    """`tail_sum(w, n)` for every window index n."""
    return [tail_sum(inst.w, n) for n in inst.w.indices()]


def _tail_head_sum(inst: Instance, tails, r: float, e: float,
                   heads, outer: float) -> float:
    """(sum_n t_n^r w_n sup_{i <= n} U(i, n)^e h_i)^outer, with per-index
    lists t and h: A_11, A_12, A_13, D_5 and D_6."""
    heads_finite, power = finite(heads), pow_for(e)
    sups = [sup0(map(mul_for(ce, rest_finite=heads_finite), ce, heads))
            for ce in map(power, inst.kernel.columns)]
    return ext_pow(ext_dot(ext_muls(pows(tails, r), inst.w.values), sups), outer)


def condition_A(k: int, inst: Instance) -> float:
    """The k-th characterizing constant of the kernel inequality, k = 1..13.

    Each per-index quantity (tail sums, dual head sums, powers of v) is
    computed once per call, so every constant costs O(L^2).
    """
    p, q = inst.p, inst.q
    v, w = inst.v.values, inst.w.values
    qinf = math.isinf(q)
    pinf = math.isinf(p)

    # In the p <= 1 regime the v-exponent carries a 1/p so that the
    # constants scale like the best constant itself (v -> lam*v scales
    # both by lam^(-1/p)); at p = 1 this is the classical formula.
    if k == 1:
        _require(p <= 1 and not qinf, "A_1", "p <= 1 and finite q")
        return sup0(ext_muls(pows(v, -1.0 / p),
                             pows(_uq_tails(inst, q), 1.0 / q)))
    if k == 2:
        _require(p <= 1 and qinf, "A_2", "p <= 1 and q = inf")
        return _pair_sup(inst, pows(v, -1.0 / p), w)
    if k == 3:
        _require(pinf and 1 <= q and not qinf, "A_3", "p = inf and 1 <= q < inf")
        return condition_D(4, inst)
    if k == 4:
        _require(1 < p and not pinf and q == 1, "A_4", "1 < p < inf and q = 1")
        pc = conjugate(p)
        return ext_pow(ext_dot(pows(_uq_tails(inst, 1.0), pc),
                               sigma_terms(inst.v, p)), 1.0 / pc)
    if k == 5:
        _require(1 < p and not pinf and qinf, "A_5", "1 < p < inf and q = inf")
        pc = conjugate(p)
        return sup0(ext_muls(w, pows(_u_heads_dual(inst, pc), 1.0 / pc)))
    if k == 6:
        _require(pinf and qinf, "A_6", "p = q = inf")
        return _at_top(_evaluator("WEAK", inst), v)
    if k == 7:
        _require(1 < p <= q and not qinf, "A_7", "1 < p <= q < inf")
        pc = conjugate(p)
        return sup0(ext_muls(pows(_w_tails(inst), 1.0 / q),
                             pows(_u_heads_dual(inst, pc), 1.0 / pc)))
    if k == 8:
        _require(1 < p <= q and not qinf, "A_8", "1 < p <= q < inf")
        return condition_D(1, inst)
    if k == 9:
        _require(1 < p and not pinf and 0 < q < p, "A_9", "1 < p < inf and 0 < q < p")
        pc = conjugate(p)
        r = q / (p - q)
        return ext_pow(ext_dot(ext_muls(pows(_w_tails(inst), r), w),
                               pows(_u_heads_dual(inst, pc), (p - 1.0) * r)),
                       (p - q) / (p * q))
    if k == 10:
        _require(1 < q < p and not pinf, "A_10", "1 < q < p < inf")
        terms = sigma_terms(inst.v, p)
        tails = pows(_uq_tails(inst, q), p / (p - q))
        return ext_pow(ext_dot(ext_muls(tails, terms),
                               pows(list(itertools.accumulate(terms)),
                                    p * (q - 1.0) / (p - q))),
                       (p - q) / (p * q))
    if k == 11:
        _require(1 < p and not pinf and 0 < q < p, "A_11", "1 < p < inf and 0 < q < p")
        r = q / (p - q)
        return _tail_head_sum(inst, _uq_tails(inst, q), r, q,
                              pows(list(itertools.accumulate(sigma_terms(inst.v, p))),
                                   (p - 1.0) * r),
                              (p - q) / (p * q))
    if k in (12, 13):
        _require(p <= 1 and 0 < q < p, f"A_{k}", "p <= 1 and 0 < q < p")
        qc = conjugate(q)  # negative since q < 1
        vq = pows(v, qc / p)
        if k == 12:
            return _tail_head_sum(inst, _w_tails(inst), -qc, -qc, vq, -1.0 / qc)
        return _tail_head_sum(inst, _uq_tails(inst, q), -qc, q, vq, -1.0 / qc)
    raise ValueError(f"unknown A-constant index: {k}")


def condition_D(k: int, inst: Instance) -> float:
    """The k-th characterizing constant of the supremum inequality, k = 1..6.

    Like `condition_A`, each per-index quantity is computed once per call.
    """
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
        return _pair_sup(inst, sigma_p_running(inst.v, p), pows(w, 1.0 / p))
    if k == 3:
        _require(pinf and qinf, "D_3", "p = q = inf")
        # Not WEAK's left-hand side at a = 1/v like A_6: w enters as
        # w^0 = 1, so D_3 ignores the size of w (a known defect).
        return _pair_sup(inst, pows(v, -1.0), pows(w, 0.0))
    if k == 4:
        _require(pinf and not qinf, "D_4", "0 < q < p = inf")
        return _at_top(_evaluator("GOP_DUAL", inst), v)
    if k in (5, 6):
        _require(1 <= p and not pinf and 0 < q < p, f"D_{k}", "1 <= p < inf and 0 < q < p")
        r = q / (p - q)
        sr = pows(sigma_p_running(inst.v, p), -r)
        outer = (p - q) / (p * q)
        if k == 5:
            return _tail_head_sum(inst, _w_tails(inst), r, p * r, sr, outer)
        return _tail_head_sum(inst, _uq_tails(inst, q), r, q, sr, outer)
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
    predicted_kernel = None
    predicted_sup = None

    ks = _A_PLAN.get(label.small_p_case if inst.p <= 1 else label.kernel_case)
    if ks is None:
        advisories.append("no closed-form characterization for this "
                          "(p, q); kernel-side prediction omitted")
    else:
        vals = [condition_A(k, inst) for k in ks]
        for k, val in zip(ks, vals):
            constants[f"A_{k}"] = val
        predicted_kernel = sum(vals, 0.0)
        if inst.p <= 1:
            # The supremum inequality shares this characterization.
            predicted_sup = predicted_kernel

    if inst.p >= 1:
        ds = _D_PLAN.get(label.sup_case)
        if ds is not None:
            vals = [condition_D(k, inst) for k in ds]
            for k, val in zip(ds, vals):
                constants[f"D_{k}"] = val
            predicted_sup = sum(vals, 0.0)

    return ConstantsReport(regime=label, constants=constants,
                           predicted_kernel=predicted_kernel,
                           predicted_sup=predicted_sup,
                           regularity=c_star, advisories=tuple(advisories))
