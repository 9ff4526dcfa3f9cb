"""Characterizing constants, oracle search and equivalence verification
for discrete weighted kernel-operator inequalities, with an exact
discrete <-> continuous bridge on step weights."""

from .bridge import (BridgeReport, DyadicCovering, LemmaDecomposition,
                     StepFunction, bridge_check, continuous_constant,
                     dyadic_covering, lemma_decompose, tail_invert)
from .constants import (ConstantsReport, characterize, condition_A,
                        condition_D)
from .discretize import (BlockDecomposition, CoveringSeq, SumBounds,
                         covering_sequence, default_ratio, l24_decompose,
                         l24_threshold, verify_covering, weighted_sum_bounds)
from .instance import Instance
from .kernels import (ChainReport, ConstantKernel, Kernel, MonotonicityReport,
                      PowerKernel, RowSequenceKernel, SupSequenceKernel,
                      TabulatedKernel, constant_kernel, tabulated_kernel)
from .numerics import (INF, ExponentPair, RegimeLabel, conjugate, ext,
                       ext_mul, ext_pow, regime)
from .oracle import (FORMS, OracleResult, SuiteReport, best_constant,
                     equivalence_suite, functional_lhs, reverse_instance,
                     rhs_norm, scaling_pair, strong_classical_constant,
                     vertex_exact)
from .weights import (TestSequence, WeightSeq, head_sum, sigma_p, tail_sum)

__version__ = "0.1.0"

__all__ = [
    "BridgeReport", "DyadicCovering", "LemmaDecomposition", "StepFunction",
    "bridge_check", "continuous_constant", "dyadic_covering",
    "lemma_decompose", "tail_invert",
    "ConstantsReport", "characterize", "condition_A", "condition_D",
    "BlockDecomposition", "CoveringSeq", "SumBounds", "covering_sequence",
    "default_ratio", "l24_decompose", "l24_threshold", "verify_covering",
    "weighted_sum_bounds",
    "Instance",
    "ChainReport", "ConstantKernel", "Kernel", "MonotonicityReport",
    "PowerKernel", "RowSequenceKernel", "SupSequenceKernel",
    "TabulatedKernel", "constant_kernel", "tabulated_kernel",
    "INF", "ExponentPair", "RegimeLabel", "conjugate", "ext", "ext_mul",
    "ext_pow", "regime",
    "FORMS", "OracleResult", "SuiteReport", "best_constant",
    "equivalence_suite", "functional_lhs", "reverse_instance", "rhs_norm",
    "scaling_pair", "strong_classical_constant", "vertex_exact",
    "TestSequence", "WeightSeq", "head_sum", "sigma_p", "tail_sum",
]
