"""skewltl: skew-symmetric X = L T L^T factorization library.

Unblocked, blocked, fused, two-step, and pivoted drivers over fused
"sandwiched" BLAS-like kernels, with Pfaffian computation, linear solves,
Matrix Market I/O, and flop/performance instrumentation.
"""

from .apps import pfaffian, solve
from .blocked import (DEFAULT_BLOCK, DEFAULT_PIVOT_BLOCK, LADDER, Features,
                      ltlt_blk_left, ltlt_blk_piv, ltlt_blk_twostep,
                      ltlt_blk_var1, ltlt_blk_var2a, ltlt_blk_var2b)
from .core import (InvalidVariant, PermutationVector, PivotUnsupported,
                   SingularT, SkewMatrixLower, SkewTridiagonal, SSplitting,
                   UnitLowerFactor, ZeroPivot, apply_symmetric_pivot,
                   compose_permutation, form_s_splitting, pack_in_place,
                   random_skew, reconstruct, unpack_in_place)
from .instrument import CallTrace, FlopCounter
from .mmio import mm_read, mm_write
from .unblocked import (FactorizationResult, ltlt_unb_ll, ltlt_unb_panel,
                        ltlt_unb_rl, ltlt_unb_twostep)

__version__ = "0.1.0"

__all__ = [
    "SkewMatrixLower", "SkewTridiagonal", "SSplitting", "UnitLowerFactor",
    "PermutationVector", "FlopCounter", "CallTrace", "FactorizationResult",
    "Features", "DEFAULT_BLOCK", "DEFAULT_PIVOT_BLOCK", "LADDER",
    "ZeroPivot", "PivotUnsupported", "InvalidVariant", "SingularT",
    "form_s_splitting", "apply_symmetric_pivot", "compose_permutation",
    "reconstruct", "pack_in_place", "unpack_in_place", "random_skew",
    "mm_read", "mm_write",
    "ltlt_unb_rl", "ltlt_unb_ll", "ltlt_unb_twostep", "ltlt_unb_panel",
    "ltlt_blk_var1", "ltlt_blk_var2a", "ltlt_blk_var2b", "ltlt_blk_left",
    "ltlt_blk_twostep", "ltlt_blk_piv",
    "pfaffian", "solve",
]
