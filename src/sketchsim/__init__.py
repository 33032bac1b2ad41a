"""Streaming multiset similarity estimation under fixed memory budgets."""

from sketchsim.core import (
    Algo,
    BudgetTooSmallError,
    CounterOverflowError,
    DegenerateEstimateError,
    IncompatibleSketchError,
    ItemId,
    JaccardEstimate,
    RowSaturatedError,
    SketchError,
    SketchParams,
    UndefinedSimilarityError,
    derive_width,
)
from sketchsim.baselines import (
    CmFrequencySketch,
    DotHashSketch,
    HllSketch,
    MaxLogHashSketch,
    MinHashSketch,
    OccurrenceItem,
    expand_cm,
    expand_cm_ids,
    expand_exact,
    expand_exact_ids,
)
from sketchsim.datagen import ZipfSpec, random_split, zipf_stream
from sketchsim.harness import (
    ExperimentConfig,
    RunResult,
    StreamFormatError,
    ZeroTruthError,
    compute_mips,
    compute_re,
    read_stream,
    run_experiment,
    summarize,
)
from sketchsim.hashing import HashFamily, HashKind, mix64
from sketchsim.oracle import ExactMultiset, multiset_jaccard
from sketchsim.salsa import SalsaSimilaritySketch, salsa_width
from sketchsim.sketches import (
    CmSimilaritySketch,
    CountSimilaritySketch,
    WeightedSimilaritySketch,
)

__version__ = "0.1.0"

__all__ = [
    "Algo",
    "BudgetTooSmallError",
    "CmFrequencySketch",
    "CmSimilaritySketch",
    "CountSimilaritySketch",
    "CounterOverflowError",
    "DegenerateEstimateError",
    "DotHashSketch",
    "ExactMultiset",
    "ExperimentConfig",
    "HashFamily",
    "HashKind",
    "HllSketch",
    "IncompatibleSketchError",
    "ItemId",
    "JaccardEstimate",
    "MaxLogHashSketch",
    "MinHashSketch",
    "OccurrenceItem",
    "RowSaturatedError",
    "RunResult",
    "SalsaSimilaritySketch",
    "SketchError",
    "SketchParams",
    "StreamFormatError",
    "UndefinedSimilarityError",
    "WeightedSimilaritySketch",
    "ZeroTruthError",
    "ZipfSpec",
    "compute_mips",
    "compute_re",
    "derive_width",
    "expand_cm",
    "expand_cm_ids",
    "expand_exact",
    "expand_exact_ids",
    "mix64",
    "multiset_jaccard",
    "random_split",
    "read_stream",
    "run_experiment",
    "salsa_width",
    "summarize",
    "zipf_stream",
]
