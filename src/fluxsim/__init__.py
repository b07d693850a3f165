"""Flux-pulse-assisted fluxonium readout simulator."""

__version__ = "0.1.0"

# the variables that set the BLAS thread count of OpenBLAS, OpenMP and MKL
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
