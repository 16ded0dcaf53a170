"""dts-ssl: dual teacher-student training for safe semi-supervised learning.

Two teacher-student model pairs share one pre-trained ancestor: an inlier pair
classifies the K seen classes, an outlier pair detects unseen-class samples
hiding in the unlabeled set via an extra (K+1)-th class. An uncertainty score
computed from both teachers couples the pairs, softly weighting every
unlabeled sample into the unseen-class supervision while gating which samples
become pseudo-labeled seen-class training data.
"""

from .data import build_mismatch_split, generate_synthetic
from .trainer import TrainConfig, run_inference, run_training

__version__ = "0.1.0"
