"""Closed-form characterizing constants and regime-driven characterization.

Two families are computed: the A-constants characterizing the weighted
kernel inequality, and the D-constants characterizing the combined
supremum/kernel inequality.  Every sum and supremum is restricted to the
instance window; partial sums "from -infinity" are clipped at the window
bottom (reciprocal powers of the zero extension would otherwise be
infinite for every instance), which is the documented finite-support
reading of each formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .instance import Instance
from .kernels import transpose
from .numerics import INF, RegimeLabel, conjugate, ext_mul, ext_pow, regime
from .weights import tail_sum


def _esum(terms) -> float:
    total = 0.0
    for t in terms:
        if math.isinf(t):
            return INF
        total += t
    return total


def _esup(terms) -> float:
    best = 0.0
    for t in terms:
        best = max(best, t)
    return best


def _uq_tail(inst: Instance, n: int, q: float, strict: bool = False) -> float:
    """Sum over i >= n (i > n when strict) of U(n, i)^q w_i."""
    m = n - inst.start
    return _esum(ext_mul(ext_pow(x, q), wi)
                 for x, wi in zip(inst.kernel.rows[m][strict:], inst.w.values[m + strict:]))


def _uq_tails(inst: Instance, q: float) -> List[float]:
    """`_uq_tail(inst, n, q)` for every window index n."""
    return [_uq_tail(inst, n, q) for n in inst.v.indices()]


def _pows(xs, r: float) -> List[float]:
    return [ext_pow(x, r) for x in xs]


def _v_heads(inst: Instance, pc: float) -> List[float]:
    """Per window index n, the sum over i <= n of v_i^(1-p').

    A running sum performs `_esum`'s additions in `_esum`'s order: the
    terms are never -0.0, so starting from the first term equals adding
    it to 0.0, and once a term is inf every later prefix is inf.
    """
    return list(itertools.accumulate(_pows(inst.v.values, 1.0 - pc)))


def _u_heads_dual(inst: Instance, pc: float) -> List[float]:
    """Per window index n, the sum over i <= n of U(i, n)^p' v_i^(1-p')."""
    vd = _pows(inst.v.values, 1.0 - pc)
    return [_esum(ext_mul(ext_pow(x, pc), d) for x, d in zip(col, vd))
            for col in transpose(inst.kernel.rows)]


def _sigmas(inst: Instance) -> List[float]:
    """`sigma_p(v, p, -inf, n)` for every window index n, as running values.

    p = 1 is a running max of v_i^-1 from 0.0; 1 < p < inf raises the
    running sum of `_v_heads` to 1/p' (an inf prefix stays inf).
    """
    p = inst.p
    if p == 1.0:
        return list(itertools.accumulate(_pows(inst.v.values, -1.0), max,
                                         initial=0.0))[1:]
    pc = p / (p - 1.0)
    return _pows(_v_heads(inst, pc), 1.0 / pc)


def _pinf_sum(inst: Instance) -> float:
    """(sum_n w_n (sum_{i <= n} U(i, n) v_i^-1)^q)^(1/q): A_3 and D_4."""
    q = inst.q
    vinv = _pows(inst.v.values, -1.0)
    return ext_pow(
        _esum(ext_mul(ext_pow(_esum(map(ext_mul, col, vinv)), q), wn)
              for col, wn in zip(transpose(inst.kernel.rows), inst.w.values)), 1.0 / q)


def _pinf_qinf_sup(inst: Instance) -> float:
    """sup over i <= n of v_i^-1 U(i, n) w_n: A_6, and calA_3 of the bridge."""
    vinv = _pows(inst.v.values, -1.0)
    return _esup(ext_mul(wn, _esup(map(ext_mul, col, vinv)))
                 for wn, col in zip(inst.w.values, transpose(inst.kernel.rows)))


def _row_sups(inst: Instance, ws: List[float]) -> List[float]:
    """Per window index n, the sup over i >= n of U(n, i) ws_i."""
    return [_esup(map(ext_mul, row, ws[n:]))
            for n, row in enumerate(inst.kernel.rows)]


def _require(cond: bool, k: str, valid: str):
    if not cond:
        raise ValueError(f"{k} is only defined for {valid}")


def _w_tails(inst: Instance) -> List[float]:
    """`tail_sum(w, n)` for every window index n."""
    return [tail_sum(inst.w, n) for n in inst.w.indices()]


def _tail_head_sum(inst: Instance, tails, r: float, e: float, heads,
                   outer: float) -> float:
    """(sum_n t_n^r w_n sup_{i <= n} U(i, n)^e h_i)^outer, with per-index
    lists t and h: A_11, A_12, A_13, D_5 and D_6."""
    return ext_pow(
        _esum(ext_mul(ext_mul(ext_pow(t, r), wn),
                      _esup(ext_mul(ext_pow(x, e), h) for x, h in zip(col, heads)))
              for t, wn, col in zip(tails, inst.w.values, transpose(inst.kernel.rows))),
        outer)


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
        return _esup(ext_mul(ext_pow(vn, -1.0 / p), ext_pow(t, 1.0 / q))
                     for vn, t in zip(v, _uq_tails(inst, q)))
    if k == 2:
        _require(p <= 1 and qinf, "A_2", "p <= 1 and q = inf")
        return _esup(ext_mul(ext_pow(vn, -1.0 / p), s)
                     for vn, s in zip(v, _row_sups(inst, w)))
    if k == 3:
        _require(pinf and 1 <= q and not qinf, "A_3", "p = inf and 1 <= q < inf")
        return _pinf_sum(inst)
    if k == 4:
        _require(1 < p and not pinf and q == 1, "A_4", "1 < p < inf and q = 1")
        pc = conjugate(p)
        return ext_pow(
            _esum(ext_mul(ext_pow(t, pc), ext_pow(vn, 1.0 - pc))
                  for t, vn in zip(_uq_tails(inst, 1.0), v)), 1.0 / pc)
    if k == 5:
        _require(1 < p and not pinf and qinf, "A_5", "1 < p < inf and q = inf")
        pc = conjugate(p)
        return _esup(ext_mul(wn, ext_pow(h, 1.0 / pc))
                     for wn, h in zip(w, _u_heads_dual(inst, pc)))
    if k == 6:
        _require(pinf and qinf, "A_6", "p = q = inf")
        return _pinf_qinf_sup(inst)
    if k == 7:
        _require(1 < p <= q and not qinf, "A_7", "1 < p <= q < inf")
        pc = conjugate(p)
        return _esup(ext_mul(ext_pow(t, 1.0 / q), ext_pow(h, 1.0 / pc))
                     for t, h in zip(_w_tails(inst), _u_heads_dual(inst, pc)))
    if k == 8:
        _require(1 < p <= q and not qinf, "A_8", "1 < p <= q < inf")
        pc = conjugate(p)
        return _esup(ext_mul(ext_pow(t, 1.0 / q), ext_pow(h, 1.0 / pc))
                     for t, h in zip(_uq_tails(inst, q), _v_heads(inst, pc)))
    if k == 9:
        _require(1 < p and not pinf and 0 < q < p, "A_9", "1 < p < inf and 0 < q < p")
        pc = conjugate(p)
        r = q / (p - q)
        return ext_pow(
            _esum(ext_mul(ext_mul(ext_pow(t, r), wn), ext_pow(h, (p - 1.0) * r))
                  for t, wn, h in zip(_w_tails(inst), w, _u_heads_dual(inst, pc))),
            (p - q) / (p * q))
    if k == 10:
        _require(1 < q < p and not pinf, "A_10", "1 < q < p < inf")
        pc = conjugate(p)
        return ext_pow(
            _esum(ext_mul(ext_mul(ext_pow(t, p / (p - q)), ext_pow(vn, 1.0 - pc)),
                          ext_pow(h, p * (q - 1.0) / (p - q)))
                  for t, vn, h in zip(_uq_tails(inst, q), v, _v_heads(inst, pc))),
            (p - q) / (p * q))
    if k == 11:
        _require(1 < p and not pinf and 0 < q < p, "A_11", "1 < p < inf and 0 < q < p")
        pc = conjugate(p)
        r = q / (p - q)
        return _tail_head_sum(inst, _uq_tails(inst, q), r, q,
                              _pows(_v_heads(inst, pc), (p - 1.0) * r),
                              (p - q) / (p * q))
    if k in (12, 13):
        _require(p <= 1 and 0 < q < p, f"A_{k}", "p <= 1 and 0 < q < p")
        qc = conjugate(q)  # negative since q < 1
        vq = _pows(v, qc / p)
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
        return _esup(ext_mul(s, ext_pow(t, 1.0 / q))
                     for s, t in zip(_sigmas(inst), _uq_tails(inst, q)))
    if k == 2:
        _require(1 <= p and not pinf and qinf, "D_2", "1 <= p < q = inf")
        return _esup(map(ext_mul, _sigmas(inst), _row_sups(inst, _pows(w, 1.0 / p))))
    if k == 3:
        _require(pinf and qinf, "D_3", "p = q = inf")
        return _esup(ext_mul(ext_pow(vn, -1.0), s)
                     for vn, s in zip(v, _row_sups(inst, _pows(w, 0.0))))
    if k == 4:
        _require(pinf and not qinf, "D_4", "0 < q < p = inf")
        return _pinf_sum(inst)
    if k in (5, 6):
        _require(1 <= p and not pinf and 0 < q < p, f"D_{k}", "1 <= p < inf and 0 < q < p")
        r = q / (p - q)
        sr = _pows(_sigmas(inst), -r)
        if k == 5:
            return _tail_head_sum(inst, _w_tails(inst), r, p * r, sr, (p - q) / (p * q))
        return _tail_head_sum(inst, _uq_tails(inst, q), r, q, sr, (p - q) / (p * q))
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


_A_PLAN = {
    "K_I": (1,), "K_II": (2,), "K_III": (3,), "K_IV": (4,), "K_V": (5,),
    "K_VI": (6,), "K_VII": (7, 8), "K_VIII": (9, 10), "K_IX": (9, 11),
    "K_X": (12, 13),
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

    if inst.p <= 1:
        case = label.small_p_case
        ks = {"P_LE1_Q_GE_P": (1,), "P_LE1_Q_INF": (2,),
              "P_LE1_Q_LT_P": (12, 13)}[case]
        vals = [condition_A(k, inst) for k in ks]
        for k, val in zip(ks, vals):
            constants[f"A_{k}"] = val
        predicted_kernel = _esum(vals)
        # The supremum inequality shares this characterization for p <= 1.
        predicted_sup = predicted_kernel
    else:
        ks = _A_PLAN.get(label.kernel_case)
        if ks is None:
            advisories.append("no closed-form characterization for this "
                              "(p, q); kernel-side prediction omitted")
        else:
            vals = [condition_A(k, inst) for k in ks]
            for k, val in zip(ks, vals):
                constants[f"A_{k}"] = val
            predicted_kernel = _esum(vals)

    if inst.p >= 1:
        ds = _D_PLAN.get(label.sup_case)
        if ds is not None:
            vals = [condition_D(k, inst) for k in ds]
            for k, val in zip(ds, vals):
                constants[f"D_{k}"] = val
            predicted_sup = _esum(vals)

    return ConstantsReport(regime=label, constants=constants,
                           predicted_kernel=predicted_kernel,
                           predicted_sup=predicted_sup,
                           regularity=c_star, advisories=tuple(advisories))
