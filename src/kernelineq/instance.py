"""Problem instances: window, exponents, weights and kernel together."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .kernels import Kernel
from .numerics import ExponentPair
from .weights import WeightSeq


@dataclass(frozen=True)
class Instance:
    """One weighted kernel-inequality problem on a shared finite window.

    `memo` keeps values derived from the instance (the constants of the
    `constants` module and their per-index sums: floats and O(L) lists,
    never a view of the kernel's triangle), so each is computed once per
    instance; `kernels.kept` keeps them, as it keeps the kernel's
    diagnostics in `Kernel.memo`.  It is not part of the instance's
    value: `==`, `hash` and `repr` ignore it, and `dataclasses.replace`
    starts the new instance with an empty one.
    """

    exponents: ExponentPair
    v: WeightSeq
    w: WeightSeq
    kernel: Kernel
    memo: Dict[tuple, object] = field(default_factory=dict, init=False,
                                      compare=False, repr=False)

    def __post_init__(self):
        a, b = self.v, self.w
        k = self.kernel
        if not (a.start == b.start == k.start and len(a) == len(b) == k.length):
            raise ValueError("v, w and kernel must share the window")

    @property
    def start(self) -> int:
        return self.v.start

    @property
    def stop(self) -> int:
        return self.v.stop

    @property
    def length(self) -> int:
        return len(self.v)

    @property
    def p(self) -> float:
        return self.exponents.p

    @property
    def q(self) -> float:
        return self.exponents.q
