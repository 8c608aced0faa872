"""Run one tieflow CLI command with its layer calls traced.

Usage: clitrace.py SPANS_FILE PARENT_SPAN RUN_ID LAUNCHED_AT -- CLI_ARGS...

LAUNCHED_AT is the parent's monotonic clock reading just before it started
this process, so the `cli.startup` span covers interpreter start and
imports. Spans are appended to SPANS_FILE after the command returns, and
the command's exit code is passed on.
"""

import sys

from measure import Tracer, instrument, now


def main() -> int:
    spans_file, parent, run, launched_at, dashes, *argv = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: clitrace.py SPANS_FILE PARENT_SPAN RUN_ID LAUNCHED_AT -- ARGS...")
    from tieflow import cli

    tracer = Tracer(run=run, parent=parent, prefix=f"{parent}.")
    tracer.record("cli.startup", float(launched_at), now())
    with instrument(tracer):
        code = cli.main(argv)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
