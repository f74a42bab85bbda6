import loopdet

# The package's public names.  A name joins or leaves this list only with a
# change that says which caller outside the tests needs it.
PUBLIC = [
    "ContainerError", "ContainerHeader", "CorruptionError", "DegenerateDescriptorError",
    "DegenerateGeometryError", "EpipolarScene", "FormatError", "FrameRecord",
    "FundamentalMatrix", "GlobalDescriptor", "GroundTruth", "HnswIndex",
    "HnswParams", "LocalFeatureSet", "LoopClosurePipeline", "Matches",
    "Neighbor", "OrderError", "PcaModel", "PipelineConfig",
    "PlantedLoop", "PrPoint", "RevisitSegment", "SynthConfig",
    "SyntheticDataset", "VerificationResult", "brute_force_match", "collect_frame_records",
    "eight_point", "exact_knn", "filter_by_score", "fit_pca",
    "generate_synthetic", "l2_normalize", "load_pca_model", "mean_recall",
    "pr_curve", "ransac_fundamental", "read_features", "read_ground_truth",
    "read_header", "recall_at_full_precision", "reduce_features", "replay_detections",
    "sampson_distance", "save_pca_model", "score", "write_features",
    "write_ground_truth",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 49
    assert loopdet.__all__ == PUBLIC
    assert all(hasattr(loopdet, name) for name in PUBLIC)
