"""Test-session set-up, run before any test module imports numpy: BLAS runs one thread, as
in CI and the benchmark. A BLAS thread pool keeps ``run_training`` from starting its pair
worker (see ``dts_ssl.pairworker``), and ``test_pairworker.py`` needs the worker."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
