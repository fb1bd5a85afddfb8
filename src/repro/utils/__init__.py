"""Shared utilities: seeding, validation, BLAS thread control, benchmark gating."""

from repro.utils.rng import new_rng
from repro.utils.threadpools import (
    BLAS_AUTO,
    blas_info,
    blas_thread_limit,
    parse_blas_threads,
    resolve_blas_threads,
    set_blas_threads,
)
from repro.utils.validation import check_in_range, check_positive, check_probability

__all__ = [
    "new_rng",
    "check_positive",
    "check_probability",
    "check_in_range",
    "BLAS_AUTO",
    "blas_info",
    "blas_thread_limit",
    "set_blas_threads",
    "parse_blas_threads",
    "resolve_blas_threads",
]
