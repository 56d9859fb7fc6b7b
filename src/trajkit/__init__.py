"""Appearance-driven multi-object tracking with trajectory-level labels.

The pieces compose as: ``io`` loads detections and vocabularies, ``tracker``
links detections into tracks by embedding similarity alone, ``fusion`` and
``classify`` turn a finished trajectory into a single open-vocabulary label,
``train`` fits the fusion block with a contrastive objective, ``metrics``
scores the result and ``synth`` fabricates scenes where the right answer is
known exactly.
"""

from .errors import (
    DimMismatchError,
    DivergedError,
    DuplicateCategoryError,
    FormatError,
    MissingWeightsError,
    NonFiniteError,
    TrajkitError,
    TruncatedError,
    UnknownCategoryError,
    ZeroNormError,
)
from .io import (
    AssociationEvent,
    DetectionFrame,
    DetectionRecord,
    EventBlock,
    GroundTruthTable,
    GroundTruthTrack,
    TrackEntry,
    TrackRecord,
    TrackTable,
    Vocabulary,
    VocabularyEntry,
    load_detections,
    load_groundtruth,
    load_splits,
    load_vocabulary,
    load_weights,
    read_embedding_sidecar,
    read_tracks,
    write_detections,
    write_embedding_sidecar,
    write_events,
    write_groundtruth,
    write_tracks,
    write_vocabulary,
    write_weights,
)
from .tracker import (
    TrackState,
    Tracker,
    TrackerConfig,
    bisoftmax,
    majority_vote,
    run_sequence,
    score_matrix,
    update_memory,
)
from .fusion import (
    FUSION_MECHANISMS,
    FusionWeights,
    concat_score,
    fuse_attention,
    fuse_average,
    fuse_cross,
    fuse_self,
    gelu,
    init_fusion_weights,
    self_attention,
    validate_fusion_shapes,
)
from .classify import (
    ClassifyConfig,
    TrajectoryClassification,
    classify_trajectory,
    clip_embeddings,
    project_language,
    sample_clip,
)
from .train import (
    TrainConfig,
    TrainPair,
    contrastive_loss,
    loss_and_gradients,
    numeric_gradient,
    train_fusion,
)
from .metrics import EvalConfig, EvalReport, SplitScores, evaluate, iou, iou_matrix
from .synth import Augmentations, SynthConfig, SynthScene, gen_scene, make_train_pairs

__version__ = "0.1.0"

__all__ = [
    "AssociationEvent", "Augmentations", "ClassifyConfig",
    "DetectionFrame", "DetectionRecord", "DimMismatchError", "DivergedError",
    "DuplicateCategoryError", "EvalConfig", "EventBlock", "EvalReport", "FUSION_MECHANISMS",
    "FormatError", "FusionWeights", "GroundTruthTable", "GroundTruthTrack", "MissingWeightsError",
    "NonFiniteError", "SplitScores", "SynthConfig", "SynthScene",
    "TrackEntry", "TrackRecord", "TrackState", "TrackTable", "Tracker", "TrackerConfig",
    "TrainConfig", "TrainPair", "TrajectoryClassification", "TrajkitError",
    "TruncatedError", "UnknownCategoryError", "Vocabulary", "VocabularyEntry",
    "ZeroNormError", "bisoftmax",
    "classify_trajectory", "clip_embeddings", "concat_score", "contrastive_loss",
    "evaluate", "fuse_attention", "fuse_average",
    "fuse_cross", "fuse_self", "gelu", "gen_scene", "init_fusion_weights",
    "iou", "iou_matrix", "load_detections", "load_groundtruth",
    "load_splits", "load_vocabulary", "load_weights", "loss_and_gradients", "majority_vote",
    "make_train_pairs", "numeric_gradient", "project_language",
    "read_embedding_sidecar", "read_tracks", "run_sequence",
    "sample_clip", "score_matrix", "self_attention",
    "train_fusion", "update_memory", "validate_fusion_shapes",
    "write_detections", "write_embedding_sidecar", "write_events", "write_groundtruth",
    "write_tracks", "write_vocabulary", "write_weights",
]
