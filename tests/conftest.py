"""Test-session setup shared by every test module.

Pins the BLAS thread pools to one thread before numpy is first imported.
The suite's matrices are small, and a multi-threaded BLAS sharing a busy
machine can run such products a hundred times slower than one thread.
Settings already in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
