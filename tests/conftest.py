"""Run the suite with the program's default of one BLAS thread. Test modules
import numpy before stmtmem, so the default is set here too; a count set in
the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
