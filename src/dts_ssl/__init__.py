"""dts-ssl: dual teacher-student training for safe semi-supervised learning.

Two teacher-student model pairs share one pre-trained ancestor: an inlier pair
classifies the K seen classes, an outlier pair detects unseen-class samples
hiding in the unlabeled set via an extra (K+1)-th class. An uncertainty score
computed from both teachers couples the pairs, softly weighting every
unlabeled sample into the unseen-class supervision while gating which samples
become pseudo-labeled seen-class training data.
"""

from .data import (
    AugmentConfig,
    BatchPair,
    Dataset,
    MismatchSplit,
    PairSampler,
    augment_batch,
    build_mismatch_split,
    feature_scale,
    generate_synthetic,
    load_dataset,
    load_split_manifest,
    materialize_split,
    save_dataset,
    save_split_manifest,
)
from .errors import (
    CapacityError,
    DtsError,
    GenerationError,
    ShapeError,
    StateError,
    UndefinedMetricError,
    ValidationError,
)
from .evaluation import (
    EvalResult,
    compute_accuracy,
    compute_auroc,
    predict_labels,
)
from .losses import (
    LossReport,
    inlier_objective,
    outlier_objective,
    pretrain_objective,
)
from .models import (
    BackboneSpec,
    DualHeadModel,
    TeacherStudentPair,
    derive_pair,
    init_teacher,
    load_model,
    param_hash,
    refresh_teacher,
    save_model,
)
from .soft_weighting import gate_mask, scores_from_probs
from .trainer import (
    ABLATION_MODES,
    PipelineDescription,
    TrainConfig,
    TrainResult,
    TrainState,
    apply_ablation,
    config_hash,
    evaluate_pipeline,
    pretrain_teacher,
    run_inference,
    run_training,
    train_dts_iteration,
)

__version__ = "0.1.0"
