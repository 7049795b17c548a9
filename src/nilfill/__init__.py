"""Rewriting certificates and filling measurements for free nilpotent groups."""

from .bench import bench_compression, bench_fill, fit_exponent
from .compression import (
    CompressedPower,
    compression_word,
    power_compression_sequence,
)
from .corpus import corpus_generate
from .engine import (
    Metrics,
    PSequence,
    invert_sequence,
    normalize_insertions,
    replay,
    validate_null,
)
from .filler import certify_afl_pair, fill_with_report
from .presentations import (
    Presentation,
    build_chain_presentation,
    build_filler_presentation,
    load_presentation,
    save_presentation,
)
from .words import free_reduce, inverse_word, nested_commutator

__all__ = [
    "CompressedPower",
    "Metrics",
    "PSequence",
    "Presentation",
    "bench_compression",
    "bench_fill",
    "build_chain_presentation",
    "build_filler_presentation",
    "certify_afl_pair",
    "compression_word",
    "corpus_generate",
    "fill_with_report",
    "fit_exponent",
    "free_reduce",
    "invert_sequence",
    "inverse_word",
    "load_presentation",
    "nested_commutator",
    "normalize_insertions",
    "power_compression_sequence",
    "replay",
    "save_presentation",
    "validate_null",
]
