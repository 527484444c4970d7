"""A cold ``dirackernel`` CLI process with the library traced.

Usage: ``python3 cli_child.py SPANS_PATH PROC ARG...`` runs the CLI on the
ARGs as the ``dirackernel`` console script would, after timing
``import dirackernel.cli`` and installing the tracer.  Spans are appended to
SPANS_PATH; a summary goes to stderr as its last line, after ``MARKER``.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import tracing

MARKER = "PERFBENCH_TRACE "


def main() -> None:
    spans_path, proc, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    start = time.perf_counter()
    import dirackernel.cli
    tracer.record(tracing.IMPORT_SPAN, start, time.perf_counter())
    tracer.install()
    sys.argv = ["dirackernel", *argv]
    try:
        dirackernel.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is reported like the console script would
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - start
    tracer.uninstall()
    tracer.write_spans(spans_path, proc)
    sys.stdout.flush()
    print(MARKER + json.dumps(tracer.summary(wall)), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
