"""Incremental visual loop-closure detection.

Per-frame global descriptors are indexed online in a hierarchical navigable
small-world graph; revisit candidates retrieved by cosine similarity are
confirmed with ratio-test local-feature matching, RANSAC fundamental-matrix
estimation, and a temporal consistency filter.  An evaluation harness with a
fully labeled synthetic generator covers precision-recall and timing.
"""

from .container import (
    ContainerError,
    ContainerHeader,
    CorruptionError,
    FormatError,
    OrderError,
    read_features,
    read_header,
    write_features,
)
from .descriptors import (
    DegenerateDescriptorError,
    GlobalDescriptor,
    LocalFeatureSet,
    PcaModel,
    filter_by_score,
    fit_pca,
    l2_normalize,
    load_pca_model,
    reduce_features,
    save_pca_model,
)
from .evaluation import (
    EpipolarScene,
    GroundTruth,
    PlantedLoop,
    PrPoint,
    RevisitSegment,
    SynthConfig,
    SyntheticDataset,
    exact_knn,
    generate_synthetic,
    mean_recall,
    pr_curve,
    read_ground_truth,
    recall_at_full_precision,
    score,
    write_ground_truth,
)
from .geometry import (
    DegenerateGeometryError,
    FundamentalMatrix,
    Matches,
    VerificationResult,
    brute_force_match,
    eight_point,
    ransac_fundamental,
    sampson_distance,
)
from .hnsw import (
    HnswIndex,
    HnswParams,
    Neighbor,
)
from .pipeline import (
    FrameRecord,
    LoopClosurePipeline,
    PipelineConfig,
    collect_frame_records,
    replay_detections,
)

__version__ = "0.1.0"

__all__ = [
    "ContainerError",
    "ContainerHeader",
    "CorruptionError",
    "DegenerateDescriptorError",
    "DegenerateGeometryError",
    "EpipolarScene",
    "FormatError",
    "FrameRecord",
    "FundamentalMatrix",
    "GlobalDescriptor",
    "GroundTruth",
    "HnswIndex",
    "HnswParams",
    "LocalFeatureSet",
    "LoopClosurePipeline",
    "Matches",
    "Neighbor",
    "OrderError",
    "PcaModel",
    "PipelineConfig",
    "PlantedLoop",
    "PrPoint",
    "RevisitSegment",
    "SynthConfig",
    "SyntheticDataset",
    "VerificationResult",
    "brute_force_match",
    "collect_frame_records",
    "eight_point",
    "exact_knn",
    "filter_by_score",
    "fit_pca",
    "generate_synthetic",
    "l2_normalize",
    "load_pca_model",
    "mean_recall",
    "pr_curve",
    "ransac_fundamental",
    "read_features",
    "read_ground_truth",
    "read_header",
    "recall_at_full_precision",
    "reduce_features",
    "replay_detections",
    "sampson_distance",
    "save_pca_model",
    "score",
    "write_features",
    "write_ground_truth",
]
