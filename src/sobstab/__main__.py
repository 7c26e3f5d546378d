"""Entry point of the `sobstab` command (`python -m sobstab`, `python -m sobstab.cli`).

A CLI call is one short process whose largest BLAS product is a
(K+1) x M matrix-vector product.  OpenBLAS starts a worker thread per
CPU when it loads, and each worker spins for about 0.1 s of CPU after
the load and after every threaded call.  On a 2-CPU Xeon the workers
added 35-75 % to a call's CPU time and saved no measurable wall time,
and with one CPU busy in another process they made every command
15-40 % slower.  So the command runs BLAS on one thread unless the
environment sets a thread count.  Importing `sobstab` as a library
changes nothing.
"""

import os
import sys

# The variables OpenBLAS reads its thread count from, in its own order.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def use_one_blas_thread() -> None:
    """Set OPENBLAS_NUM_THREADS=1 unless a BLAS thread count is set; call before numpy loads."""
    if not any(os.environ.get(var) for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> int:
    use_one_blas_thread()
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
