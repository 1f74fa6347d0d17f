"""Coupling design and exact verification for engineered spin chains."""

# The one record of the package version: pyproject.toml reads it, and every
# artifact's provenance records it.
__version__ = "0.1.0"

# Environment variables that set how many threads the BLAS library starts.
# The CLI pins one thread when none is set; provenance records all three.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
