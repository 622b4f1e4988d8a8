"""The ``nlsparse`` command (also ``python -m nlsparse``).

``simulate`` runs every trial on one BLAS thread, so unless the user has set
a BLAS thread count it loads OpenBLAS with one thread: an idle OpenBLAS
helper thread busy-waits after start-up and again in each pool worker, on the
cores the trials need. The other subcommands keep the BLAS default, under
which their single large fits run faster.
"""

import os
import sys

# The variables numpy's bundled OpenBLAS reads for its thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["simulate"] and not any(os.environ.get(v) for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
