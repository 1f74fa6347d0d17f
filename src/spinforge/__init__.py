"""Coupling design and exact verification for engineered spin chains."""

# Environment variables that set how many threads the BLAS library starts.
# The CLI pins one thread when none is set; provenance records all three.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
