"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced pass.
``--trace 1`` runs an untraced pass, then the same workload with every
layer function wrapped (see ``layers.py``), and reports the per-layer
metrics, a per-layer time table, the share of wall time no layer covers
and the tracing overhead; spans go to ``.perfbench_out/`` as JSON lines.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A correctness
check that fails makes ``correct`` false; any other error exits non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: Every end-to-end metric: name, unit, better, bound (allowed relative
#: worsening of the median before a change counts as a regression).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("reads_per_s", "blocks/s", "higher", 0.25),
    ("round_ms_p50", "ms", "lower", 0.25),
    ("round_ms_p95", "ms", "lower", 0.25),
    ("work_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

WORKLOADS = [
    ("serve_steady",
     "20k Zipf streams, no churn, no replicas: per-shard gather/locate/deliver does "
     "the work; cluster layer and storage.array mutation do none"),
    ("serve_popular",
     "stream churn, popularity replica budget, flash crowd per episode: cluster "
     "demand feed, adapt (ingest copies, evict via array.drop) and admission dominate"),
    ("reorganize",
     "disk add/remove on every shard, live shard add, kill+rebuild, reshuffle, "
     "manifest round trip: planners, migration, array, journals and persistence"),
]

OUT_DIR = ".perfbench_out"


def _environment(root: Path, args, sizes: dict) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():  # a plain checkout has no sha to read
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = _environment(root, args, workloads.CONFIGS[args.workload])
    print("environment " + json.dumps(env, sort_keys=True))

    problems, passes, metrics, units = [], [], {}, {}
    try:
        base = workloads.run(args.workload, args.seed, args.seconds, out)
        passes.append(base)
        print("deterministic " + workloads.deterministic_json(base))
        metrics = workloads.summary(base)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        if args.trace:
            import layers

            traced, metrics, table = _traced(args, workloads, base, out, tag)
            passes.append(traced)
            units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
            for row in table:
                print(
                    f"layer {row['layer']:<22} calls {row['calls']:>9} "
                    f"total {row['total_s']:9.3f} s  self {row['self_s']:9.3f} s  "
                    f"share {row['self_share']:6.1%}"
                )
            if workloads.deterministic_json(traced) != workloads.deterministic_json(base):
                raise workloads.CheckFailed("traced pass changed the deterministic record")
    except workloads.CheckFailed as exc:
        problems.append(str(exc))

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(p.ledger.attempted for p in passes) or 1
    failed = sum(p.ledger.failed for p in passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    record = {**result, "environment": env, "claim": None, "problems": problems,
              "deterministic": passes[0].deterministic if passes else None}
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result, separators=(",", ":")))
    return 0


def _traced(args, workloads, base, out: Path, tag: str):
    """The traced pass: returns its outcome, the per-layer values and the
    per-layer time table."""
    import numpy as np

    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    t0 = time.perf_counter()
    try:
        traced = workloads.run(args.workload, args.seed, args.seconds, out, setups=1)
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    tracer.write_spans(out / f"{tag}-spans.jsonl")
    print(f"trace spans kept {len(tracer.spans)} dropped {tracer.spans_dropped} "
          f"wall {wall:.3f} s")
    values = layers.derive(tracer, traced, wall, float(np.median(base.work_s)))
    return traced, values, tracer.layer_table(wall)


if __name__ == "__main__":
    sys.exit(main())
