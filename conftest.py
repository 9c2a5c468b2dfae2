"""Test-session setup: BLAS on one thread, as perfbench runs it, so that
test timings (AC05's among them) compare with the benchmark's. This runs
before any test module imports numpy; a value already set in the
environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
