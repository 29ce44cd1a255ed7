"""Run one mdsrepair CLI command with the traced-run wrappers installed.

    python3 perfbench/cli_child.py SPANS_OUT SPAWN_NS <mdsrepair args...>

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started
this process; the gap to the call of ``cli.main`` is the command's
start-up (interpreter, imports).  The spans go to SPANS_OUT as JSON and
the process exits with the command's own exit code.  The checkout's
``src`` must be first on PYTHONPATH, as for the untraced children.
"""

import json
import sys
from time import monotonic_ns

import spans


def main() -> int:
    out_path, spawn_ns, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from mdsrepair import cli

    startup_ns = monotonic_ns() - spawn_ns
    sid = tracer.open(tracer.name_id("cli.main"))
    try:
        code = cli.main(argv)
    finally:
        tracer.close(sid)
        doc = tracer.to_json()
        doc["startup_ns"] = startup_ns
        with open(out_path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
