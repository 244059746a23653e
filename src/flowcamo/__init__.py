"""flowcamo: traffic-feature camouflage lab.

Black-box substitute extraction, feature-pool pruning, generator-based
traffic-feature manipulation (misidentification and identity spoofing),
and an RF-signature device-profiling defense, over synthetic network-flow
feature vectors.
"""
from .core import (
    ContractViolationError,
    Dataset,
    DegenerateTrainingError,
    DeviceClass,
    EvaluationError,
    Feature,
    FeatureSchema,
    NumericError,
    StratificationError,
    ValidationError,
    identification_rate,
    split_dataset,
    spoofing_rate,
)

__version__ = "0.1.0"
