"""Run one latorb command with the span tracer installed.

Usage: python child.py SPANS_FILE ARGS...

Behaves like ``python -m latorb ARGS...`` (same stdout and exit code) and
writes the recorded spans, counters and catalog cache statistics to
SPANS_FILE as JSON when the command ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer, cache_stats, load_modules


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    modules = load_modules()
    tracer = Tracer()
    tracer.install()
    try:
        code = modules["cli"].main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        doc = tracer.export()
        doc["cache"] = cache_stats(modules["catalog"])
        spans_file.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
