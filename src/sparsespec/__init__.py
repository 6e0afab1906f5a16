"""Sparse spectral estimation from shifted undersampled streams.

A K-sparse spectrum is recovered at full-grid resolution from M short
streams taken at a coprime (stride, shift) pair: aliased peaks are
disambiguated by intersecting candidate frequency sets, and bins where
several components collide are separated by small matrix-pencil
decompositions of the per-stream coefficient sequence.

The experiment names of ``sparsespec.lab`` are exported too, but that module
loads on first use of one of them, so importing the estimator or
``sparsespec.fileio`` does not import the experiments.
"""
from .aliasing import (
    BezoutPair,
    angle_cycles,
    bezout,
    candidate_set,
    circular_distance_hz,
    resolve_bezout,
    resolve_match,
)
from .core import (
    ComplexSignal,
    StreamSpec,
    SynthSpec,
    ToneSpec,
    circular_shift,
    dft,
    dft_at,
    dft_direct,
    extract_streams,
    idft,
    max_stream_length,
    select_peaks,
    stream_view,
    synthesize,
)
from .errors import (
    BadShape,
    IllConditionedPencil,
    IllConditionedVandermonde,
    IndexBudgetExceeded,
    NoConvergence,
    NonFiniteSamples,
    NotCoprime,
    NoUniqueIntersection,
    SparseSpecError,
)
from .pipeline import (
    HybridConfig,
    RecoveredComponent,
    SparseSpectrum,
    analyze,
    build_prony_sequences,
    dense_reference,
    shifted_coeffs_shortcut,
)
from .prony import (
    OrderEstimate,
    estimate_order,
    hankel,
    model_residual,
    pencil_decompose,
    svd_small,
)

__version__ = "0.1.0"

__all__ = [
    "BadShape",
    "BezoutPair",
    "ComplexSignal",
    "EXPERIMENT_1_TONES",
    "EXPERIMENT_2_MUS",
    "EXPERIMENT_2_REFERENCE_SAMPLES",
    "EvalReport",
    "HybridConfig",
    "IllConditionedPencil",
    "IllConditionedVandermonde",
    "IndexBudgetExceeded",
    "NoConvergence",
    "NonFiniteSamples",
    "NotCoprime",
    "NoUniqueIntersection",
    "OrderEstimate",
    "RecoveredComponent",
    "SparseSpecError",
    "SparseSpectrum",
    "StreamSpec",
    "SynthSpec",
    "ToneSpec",
    "analyze",
    "angle_cycles",
    "bezout",
    "build_prony_sequences",
    "candidate_set",
    "circular_distance_hz",
    "circular_shift",
    "dense_reference",
    "dft",
    "dft_at",
    "dft_direct",
    "estimate_order",
    "evaluate",
    "experiment_1_config",
    "experiment_1_spec",
    "experiment_2_config",
    "experiment_2_spec",
    "extract_streams",
    "hankel",
    "idft",
    "max_stream_length",
    "model_residual",
    "pencil_decompose",
    "resolve_bezout",
    "resolve_match",
    "run_experiment_1",
    "run_experiment_2",
    "run_selftest",
    "select_peaks",
    "shifted_coeffs_shortcut",
    "stream_view",
    "svd_small",
    "synthesize",
]


def __getattr__(name):
    # Only the lab names of __all__ are not bound above.
    if name in __all__:
        from . import lab
        return getattr(lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
