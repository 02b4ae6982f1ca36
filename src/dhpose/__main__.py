"""The ``dhpose`` command, also run as ``python -m dhpose``.

BLAS splits the sums of a matrix product by its thread count, so the bits
of a training run depend on that count.  The command runs BLAS on one
thread unless the environment already sets one of these variables; they
are read once, when numpy loads, so they are set before the CLI imports it.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
