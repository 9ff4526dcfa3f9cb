"""Finite-window weight sequences with zero extension.

A sequence is stored as a start index and a finite list of nonnegative
values; it is implicitly zero everywhere else on the integers.  This is
the single truncation convention of the whole package: every "infinite"
sum or supremum is evaluated under it, so all computations are finite.

Empty index ranges follow the usual lattice conventions: empty sums are
0 and empty suprema are 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List

from .numerics import INF, conjugate, ext, ext_pow, finite_floats, pows


@dataclass(frozen=True)
class WeightSeq:
    """Nonnegative sequence on a window [start, start + len - 1], zero outside."""

    start: int
    values: tuple = field(default_factory=tuple)

    def __post_init__(self):
        raw = tuple(self.values)
        vals = finite_floats(raw)
        if vals is None:
            for v in raw:  # raises the first bad entry's error, as `ext` does
                if math.isinf(ext(v)):
                    raise ValueError("weight entries must be finite")
            vals = tuple(map(float, raw))
        if not vals:
            raise ValueError("weight sequence needs at least one entry")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def stop(self) -> int:
        """Last index of the window (inclusive)."""
        return self.start + len(self.values) - 1

    def __getitem__(self, n: int) -> float:
        if self.start <= n <= self.stop:
            return self.values[n - self.start]
        return 0.0

    def indices(self) -> range:
        return range(self.start, self.stop + 1)

    def scaled(self, factor: float) -> "WeightSeq":
        return WeightSeq(self.start, tuple(factor * v for v in self.values))


# Test sequences share representation and semantics with weights.
TestSequence = WeightSeq
# Keep test collectors from treating the alias as a test case.
TestSequence.__test__ = False


def tail_sum(w: WeightSeq, n: int) -> float:
    """Sum of w_i for i >= n; finite because of zero extension."""
    lo = max(n, w.start)
    if lo > w.stop:
        return 0.0
    return float(sum(w.values[lo - w.start:]))


def head_sum(w: WeightSeq, n: int) -> float:
    """Sum of w_i for i <= n."""
    hi = min(n, w.stop)
    if hi < w.start:
        return 0.0
    return float(sum(w.values[: hi - w.start + 1]))


def sigma_p(v: WeightSeq, p: float, N, M) -> float:
    """Dual-norm quantity over the index range [N, M].

    For 1 < p < inf this is (sum v_i^(1-p'))^(1/p'); for p = 1 it is
    sup v_i^(-1), over the terms `sigma_terms` gives.  N may be -inf, in
    which case the range is clipped at the window bottom (the documented
    finite-support reading).  A range that leaves the window, M = +inf
    included, pulls in zero entries, whose reciprocal powers are +inf.
    """
    terms = sigma_terms(v, p)
    if N > M:
        raise ValueError(f"empty index range: N={N} > M={M}")
    lo = v.start if N == -INF else N
    if not v.start <= lo <= M <= v.stop:
        return INF
    part = terms[int(lo) - v.start:int(M) - v.start + 1]
    if p == 1.0:
        return max(part)
    return ext_pow(sum(part, 0.0), 1.0 / conjugate(p))


def sigma_terms(v: WeightSeq, p: float) -> List[float]:
    """The per-index terms of sigma_p: v_i^-1 at p = 1, v_i^(1-p') for
    1 < p < inf."""
    if p < 1 or math.isinf(p):
        raise ValueError("sigma_p is defined for 1 <= p < inf only")
    return pows(v.values, -1.0 if p == 1.0 else 1.0 - conjugate(p))


def sigma_p_running(v: WeightSeq, p: float) -> List[float]:
    """`sigma_p(v, p, -inf, n)` for every window index n, as running values.

    p = 1 is a running max of the terms from 0.0; 1 < p < inf raises the
    running sum of the terms to 1/p'.  The running sum adds in sigma_p's
    order: no term is -0.0, so starting from the first term equals adding
    it to 0.0, and once a term is inf every later prefix is inf.
    """
    terms = sigma_terms(v, p)
    if p == 1.0:
        return list(itertools.accumulate(terms, max, initial=0.0))[1:]
    return pows(list(itertools.accumulate(terms)), 1.0 / conjugate(p))
