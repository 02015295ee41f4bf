"""Child process of a traced cli-oneshot request.

    python -X importtime bench/cli_child.py <tpqr arguments>

Times ``import tpqr.cli``, runs ``tpqr.cli.main`` with the tracer's
wrappers installed and its stdout captured, and prints one JSON object:
the start time (CLOCK_MONOTONIC, comparable with the parent's), the
import time, the exit code, the captured stdout, the spans, and the
``_squarefree`` cache counters.  main's stderr passes through.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import tracer as tr  # noqa: E402


def main() -> None:
    t0 = perf_counter()
    import tpqr.cli

    import_s = perf_counter() - t0
    tracer = tr.Tracer()
    captured = io.StringIO()
    with tr.installed(tracer), contextlib.redirect_stdout(captured):
        with tracer.request(0, "cli.main", layer="cli"):
            rc = tpqr.cli.main(sys.argv[1:])
    json.dump({
        "t_start": T_START,
        "import_s": import_s,
        "rc": rc,
        "stdout": captured.getvalue(),
        "spans": tracer.spans,
        "squarefree": tr.squarefree_counts(),
    }, sys.stdout)


if __name__ == "__main__":
    main()
