"""Run one ``prank`` CLI command with spans recorded, for the traced cli run.

    python3 perfbench/cli_child.py SPANS_JSON -- <prank arguments>

Times ``import prank.cli``, installs the span wrappers, calls
``prank.cli.main`` and writes the spans and the e15 cache misses to
SPANS_JSON.  Exits with the command's exit code.  ``src`` must be on
PYTHONPATH, as for ``python3 -m prank.cli``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: cli_child.py SPANS_JSON -- <prank arguments>", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    tracer = spans.Tracer(workload="cli", seed=None)
    span = tracer.open("cli.import")
    import prank.cli
    tracer.close(span)
    tracer.install()
    try:
        code = prank.cli.main(argv[2:])
    finally:
        tracer.uninstall()
    summary = {"spans": tracer.records(), "cold_fits": spans.cold_fit_count()}
    out_path.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
