"""The ``nlsparse`` command (also ``python -m nlsparse``).

``simulate`` runs every trial on one BLAS thread, so unless the user has set
a BLAS thread count it loads OpenBLAS with one thread: an idle OpenBLAS
helper thread busy-waits after start-up and again in each pool worker, on the
cores the trials need. The other subcommands keep the BLAS default, under
which their single large fits run faster.

The command ends the way its forked trial workers end: once :func:`main` has
returned, :func:`run` runs the ``atexit`` callbacks, flushes standard output
and error, and leaves by ``os._exit``. This skips the interpreter's teardown
(module clearing and garbage collection over numpy's objects), 35-56 ms of a
0.3 s command on a 2-core machine. An interrupt prints
``nlsparse: interrupted`` and exits 130; a closed standard output prints one
``nlsparse: error: ...`` line and exits 1. :func:`main` itself returns its exit
code and leaves the interpreter running.
"""

import atexit
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


def run():
    """Run the command of ``sys.argv`` and end the process with its exit code.

    Skipping the teardown loses nothing because, when :func:`main` returns or
    is interrupted, every file the command wrote is closed (``cli._emit``
    writes within ``with``) and every trial process has been reaped (the
    ``finally`` block of ``simulate._map_trials``). Any other exception
    leaving :func:`main`, argparse's ``SystemExit`` included, takes Python's
    normal exit. When the reader of standard output has gone (a
    ``BrokenPipeError`` from :func:`main` or from the flush), the command
    prints one line and exits 1: writing to a closed pipe never exits 0.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        print("nlsparse: interrupted", file=sys.stderr)
        code = 130
    except BrokenPipeError:
        code = _closed_stdout()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):  # after the callbacks, which may write
            if stream is not None:  # None when the descriptor was closed at start-up
                stream.flush()
    except BrokenPipeError:
        code = _closed_stdout()
    os._exit(code)


def _closed_stdout() -> int:
    """Report that the reader of standard output has gone; return the exit code, 1."""
    try:
        print("nlsparse: error: cannot write to standard output (broken pipe)",
              file=sys.stderr, flush=True)
    except OSError:  # standard error has gone too
        pass
    return 1


if __name__ == "__main__":
    run()
