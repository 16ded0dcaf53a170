"""dts-ssl: dual teacher-student training for safe semi-supervised learning.

Two teacher-student model pairs share one pre-trained ancestor: an inlier pair
classifies the K seen classes, an outlier pair detects unseen-class samples
hiding in the unlabeled set via an extra (K+1)-th class. An uncertainty score
computed from both teachers couples the pairs, softly weighting every
unlabeled sample into the unseen-class supervision while gating which samples
become pseudo-labeled seen-class training data.
"""

import os

# BLAS reads its thread count once, when numpy loads it; this runs first on the ``dts-ssl``
# console script's path (``dts_ssl.cli:main``). One thread, unless the variable is set: a
# thread pool keeps ``run_training`` from forking its pair worker (see ``pairworker``)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .config import TrainConfig  # noqa: E402 - after the BLAS pin
from .data import build_mismatch_split, generate_synthetic  # noqa: E402

__version__ = "0.1.0"

# the training code loads on first use of one of these (PEP 562), not with the package
_TRAINER_NAMES = ("run_inference", "run_training")


def __getattr__(name: str):
    if name in _TRAINER_NAMES:
        from . import trainer

        return getattr(trainer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_TRAINER_NAMES])
