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

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from .instance import Instance
from .numerics import INF, RegimeLabel, conjugate, ext_mul, ext_pow, regime
from .weights import sigma_p, tail_sum


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
    return _esum(ext_mul(ext_pow(inst.kernel.eval(n, i), q), inst.w[i])
                 for i in range(n + strict, inst.stop + 1))


def _u_head_dual(inst: Instance, n: int, r: float, pc: float) -> float:
    """Sum over i <= n of U(i, n)^r v_i^(1-p')."""
    return _esum(ext_mul(ext_pow(inst.kernel.eval(i, n), r),
                         ext_pow(inst.v[i], 1.0 - pc))
                 for i in range(inst.start, n + 1))


def _v_head_dual(inst: Instance, n: int, pc: float) -> float:
    """Sum over i <= n of v_i^(1-p')."""
    return _esum(ext_pow(inst.v[i], 1.0 - pc) for i in range(inst.start, n + 1))


def _pinf_sum(inst: Instance) -> float:
    """(sum_n w_n (sum_{i <= n} U(i, n) v_i^-1)^q)^(1/q): A_3 and D_4."""
    q, U, v = inst.q, inst.kernel, inst.v
    return ext_pow(
        _esum(ext_mul(ext_pow(_esum(ext_mul(U.eval(i, n), ext_pow(v[i], -1.0))
                                    for i in range(inst.start, n + 1)), q), inst.w[n])
              for n in inst.v.indices()), 1.0 / q)


def _pinf_qinf_sup(inst: Instance) -> float:
    """sup over i <= n of v_i^-1 U(i, n) w_n: A_6, and calA_3 of the bridge."""
    U, v, w = inst.kernel, inst.v, inst.w
    return _esup(ext_mul(w[n], _esup(ext_mul(U.eval(i, n), ext_pow(v[i], -1.0))
                                     for i in range(inst.start, n + 1)))
                 for n in inst.v.indices())


def _require(cond: bool, k: str, valid: str):
    if not cond:
        raise ValueError(f"{k} is only defined for {valid}")


def condition_A(k: int, inst: Instance) -> float:
    """The k-th characterizing constant of the kernel inequality, k = 1..13."""
    p, q = inst.p, inst.q
    U, v, w = inst.kernel, inst.v, inst.w
    lo, hi = inst.start, inst.stop
    ns = range(lo, hi + 1)
    qinf = math.isinf(q)
    pinf = math.isinf(p)

    # In the p <= 1 regime the v-exponent carries a 1/p so that the
    # constants scale like the best constant itself (v -> lam*v scales
    # both by lam^(-1/p)); at p = 1 this is the classical formula.
    if k == 1:
        _require(p <= 1 and not qinf, "A_1", "p <= 1 and finite q")
        return _esup(ext_mul(ext_pow(v[n], -1.0 / p), ext_pow(_uq_tail(inst, n, q), 1.0 / q))
                     for n in ns)
    if k == 2:
        _require(p <= 1 and qinf, "A_2", "p <= 1 and q = inf")
        return _esup(ext_mul(ext_pow(v[n], -1.0 / p),
                             _esup(ext_mul(U.eval(n, i), w[i]) for i in range(n, hi + 1)))
                     for n in ns)
    if k == 3:
        _require(pinf and 1 <= q and not qinf, "A_3", "p = inf and 1 <= q < inf")
        return _pinf_sum(inst)
    if k == 4:
        _require(1 < p and not pinf and q == 1, "A_4", "1 < p < inf and q = 1")
        pc = conjugate(p)
        return ext_pow(
            _esum(ext_mul(ext_pow(_uq_tail(inst, n, 1.0), pc), ext_pow(v[n], 1.0 - pc))
                  for n in ns), 1.0 / pc)
    if k == 5:
        _require(1 < p and not pinf and qinf, "A_5", "1 < p < inf and q = inf")
        pc = conjugate(p)
        return _esup(ext_mul(w[n], ext_pow(_u_head_dual(inst, n, pc, pc), 1.0 / pc))
                     for n in ns)
    if k == 6:
        _require(pinf and qinf, "A_6", "p = q = inf")
        return _pinf_qinf_sup(inst)
    if k == 7:
        _require(1 < p <= q and not qinf, "A_7", "1 < p <= q < inf")
        pc = conjugate(p)
        return _esup(ext_mul(ext_pow(tail_sum(w, n), 1.0 / q),
                             ext_pow(_u_head_dual(inst, n, pc, pc), 1.0 / pc))
                     for n in ns)
    if k == 8:
        _require(1 < p <= q and not qinf, "A_8", "1 < p <= q < inf")
        pc = conjugate(p)
        return _esup(ext_mul(ext_pow(_uq_tail(inst, n, q), 1.0 / q),
                             ext_pow(_v_head_dual(inst, n, pc), 1.0 / pc))
                     for n in ns)
    if k == 9:
        _require(1 < p and not pinf and 0 < q < p, "A_9", "1 < p < inf and 0 < q < p")
        pc = conjugate(p)
        r = q / (p - q)
        return ext_pow(
            _esum(ext_mul(ext_mul(ext_pow(tail_sum(w, n), r), w[n]),
                          ext_pow(_u_head_dual(inst, n, pc, pc), (p - 1.0) * r))
                  for n in ns), (p - q) / (p * q))
    if k == 10:
        _require(1 < q < p and not pinf, "A_10", "1 < q < p < inf")
        pc = conjugate(p)
        return ext_pow(
            _esum(ext_mul(ext_mul(ext_pow(_uq_tail(inst, n, q), p / (p - q)),
                                  ext_pow(v[n], 1.0 - pc)),
                          ext_pow(_v_head_dual(inst, n, pc), p * (q - 1.0) / (p - q)))
                  for n in ns), (p - q) / (p * q))
    if k == 11:
        _require(1 < p and not pinf and 0 < q < p, "A_11", "1 < p < inf and 0 < q < p")
        pc = conjugate(p)
        r = q / (p - q)
        return ext_pow(
            _esum(ext_mul(ext_mul(ext_pow(_uq_tail(inst, n, q), r), w[n]),
                          _esup(ext_mul(ext_pow(U.eval(j, n), q),
                                        ext_pow(_v_head_dual(inst, j, pc), (p - 1.0) * r))
                                for j in range(lo, n + 1)))
                  for n in ns), (p - q) / (p * q))
    if k in (12, 13):
        _require(p <= 1 and 0 < q < p, f"A_{k}", "p <= 1 and 0 < q < p")
        qc = conjugate(q)  # negative since q < 1
        if k == 12:
            return ext_pow(
                _esum(ext_mul(ext_mul(ext_pow(tail_sum(w, n), -qc), w[n]),
                              _esup(ext_mul(ext_pow(U.eval(i, n), -qc),
                                            ext_pow(v[i], qc / p))
                                    for i in range(lo, n + 1)))
                      for n in ns), -1.0 / qc)
        return ext_pow(
            _esum(ext_mul(ext_mul(ext_pow(_uq_tail(inst, n, q), -qc), w[n]),
                          _esup(ext_mul(ext_pow(U.eval(i, n), q), ext_pow(v[i], qc / p))
                                for i in range(lo, n + 1)))
                  for n in ns), -1.0 / qc)
    raise ValueError(f"unknown A-constant index: {k}")


def condition_D(k: int, inst: Instance) -> float:
    """The k-th characterizing constant of the supremum inequality, k = 1..6."""
    p, q = inst.p, inst.q
    U, v, w = inst.kernel, inst.v, inst.w
    lo, hi = inst.start, inst.stop
    ns = range(lo, hi + 1)
    qinf = math.isinf(q)
    pinf = math.isinf(p)

    def sig(n: int) -> float:
        return sigma_p(v, p, -INF, n)

    if k == 1:
        _require(1 <= p <= q and not qinf, "D_1", "1 <= p <= q < inf")
        return _esup(ext_mul(sig(n), ext_pow(_uq_tail(inst, n, q), 1.0 / q)) for n in ns)
    if k == 2:
        _require(1 <= p and not pinf and qinf, "D_2", "1 <= p < q = inf")
        return _esup(ext_mul(sig(n),
                             _esup(ext_mul(U.eval(n, i), ext_pow(w[i], 1.0 / p))
                                   for i in range(n, hi + 1)))
                     for n in ns)
    if k == 3:
        _require(pinf and qinf, "D_3", "p = q = inf")
        return _esup(ext_mul(ext_pow(v[n], -1.0),
                             _esup(ext_mul(U.eval(n, i), ext_pow(w[i], 0.0))
                                   for i in range(n, hi + 1)))
                     for n in ns)
    if k == 4:
        _require(pinf and not qinf, "D_4", "0 < q < p = inf")
        return _pinf_sum(inst)
    if k in (5, 6):
        _require(1 <= p and not pinf and 0 < q < p, f"D_{k}", "1 <= p < inf and 0 < q < p")
        r = q / (p - q)
        if k == 5:
            return ext_pow(
                _esum(ext_mul(ext_mul(ext_pow(tail_sum(w, n), r), w[n]),
                              _esup(ext_mul(ext_pow(U.eval(i, n), p * r),
                                            ext_pow(sig(i), -r))
                                    for i in range(lo, n + 1)))
                      for n in ns), (p - q) / (p * q))
        return ext_pow(
            _esum(ext_mul(ext_mul(ext_pow(_uq_tail(inst, n, q), r), w[n]),
                          _esup(ext_mul(ext_pow(U.eval(i, n), q), ext_pow(sig(i), -r))
                                for i in range(lo, n + 1)))
                  for n in ns), (p - q) / (p * q))
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
