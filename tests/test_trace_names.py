"""The benchmark tracer still finds every span the benchmark reports.

``perfbench/tracer.py`` wraps latorb's public functions by name and binds a
few methods, ``Lattice.__init__`` among them, through their class
``__dict__``.  ``BENCHMARK.json`` names the spans its ``per_layer`` metrics
read.  Deleting or renaming a traced function, or giving ``Lattice`` no
``__init__`` of its own, breaks a traced benchmark run; this test fails
first.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import LAYERS, Tracer  # noqa: E402


def test_every_per_layer_span_is_traced():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    spans = {m["name"].rsplit(".", 1)[0] for m in metrics
             if m["name"].endswith((".calls", ".self_s"))} - set(LAYERS)
    tracer = Tracer()
    try:
        tracer.install()
        assert sorted(spans - tracer.names) == []
    finally:
        tracer.uninstall()
