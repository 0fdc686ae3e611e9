"""Write ``BENCHMARK.json`` from the metric and workload tables.

Run from the repository root after changing a table in ``run.py`` or
``layers.py``::

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 15


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import layers
    import run

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in run.WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in run.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in layers.PER_LAYER
        ],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
