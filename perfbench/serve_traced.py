"""Traced service launcher: ``python perfbench/serve_traced.py OUT.json [serve args]``.

Installs the span wrappers of :mod:`spans` (shared layers plus the HTTP
ones), runs the unmodified ``python -m repro serve`` CLI until SIGTERM,
then writes the recorder's aggregates and the process's telemetry
counters to ``OUT.json`` for the benchmark to fold in.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    rec = spans.Recorder(keep=0)
    spans.install(rec)
    spans.install_service(rec)
    from repro.service.cli import main as serve_main
    from repro.telemetry import metrics

    rec.active = True
    try:
        code = serve_main(argv[1:])
    finally:
        rec.active = False
        counters = metrics().snapshot().get("counters", {})
        doc = rec.aggregates()
        doc["telemetry_increments"] = sum(counters.values())
        doc["memo_hits"] = counters.get("solver.memo_hits", 0)
        doc["memo_lookups"] = counters.get("core.knapsack.fptas_batch_solves", 0)
        out.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
