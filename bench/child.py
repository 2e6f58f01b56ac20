"""One sample in a fresh interpreter: import eistheta, run one entry point, exit.

    python bench/child.py STAMP TRACE cli ARGS...    # eistheta.cli.main(ARGS)
    python bench/child.py STAMP TRACE dual ARGS...   # dual_route.main(ARGS)
    python bench/child.py STAMP - import             # stop after the import

STAMP receives ``time.monotonic()`` read right after ``import eistheta``
returned.  CLOCK_MONOTONIC is system wide, so the parent subtracts its own
reading taken before the spawn to get the set-up time.  TRACE is ``-`` for
an untraced sample, else the file the spans are written to.
"""

import sys
import time


def main(argv):
    stamp, trace_path, mode, *args = argv
    import eistheta  # noqa: F401  (the import is what STAMP times)

    done = time.monotonic()
    with open(stamp, "w") as fh:
        fh.write(repr(done))
    if mode == "import":
        return 0
    if mode == "cli":
        import eistheta.cli as entry
    else:
        import dual_route as entry
    if trace_path == "-":
        return entry.main(args)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return entry.main(args)
    finally:
        tracer.uninstall()
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
