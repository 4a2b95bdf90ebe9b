"""Fold the per-run reports in ``.perfbench/`` into one results file.

Usage, from the root of a checkout, after running the benchmark over
several seeds::

    python3 perfbench/summarize.py --out perfbench/BENCH_0.json

For every workload, each metric of the untraced runs (``--trace 0``) gets
its median, quartiles and per-run values; the traced runs' per-layer metrics
are listed per seed as they are.  Machine noise (steal share and load) is
kept for every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(reports: list[dict]) -> dict:
    out: dict = {}
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for report in reports:
        by_workload[report["workload"]].append(report)
    for workload, runs in sorted(by_workload.items()):
        plain = sorted((r for r in runs if not r["trace"]), key=lambda r: r["seed"])
        traced = sorted((r for r in runs if r["trace"]), key=lambda r: r["seed"])
        values: dict[str, list[float]] = defaultdict(list)
        units: dict[str, str] = {}
        for run in plain:
            for name, row in {**run["metrics"], **run["named"]}.items():
                values[name].append(row["value"])
                units[name] = row["unit"]
        metrics = {}
        for name, series in values.items():
            quartiles = statistics.quantiles(series, n=4) if len(series) > 1 else [series[0]] * 3
            median = statistics.median(series)
            metrics[name] = {
                "unit": units[name],
                "median": median,
                "q1": quartiles[0],
                "q3": quartiles[2],
                "spread": (quartiles[2] - quartiles[0]) / median if median else 0.0,
                "runs": series,
            }
        out[workload] = {
            "seeds": [r["seed"] for r in plain],
            "seconds": sorted({r["seconds"] for r in runs}),
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
            "inputs": plain[0]["inputs"] if plain else traced[0]["inputs"],
            "machine": [{key: r["machine"][key] for key in ("steal_share", "loadavg1")} for r in plain],
            "end_to_end": metrics,
            "per_layer": {r["seed"]: {**r["metrics"], **r["named"]} for r in traced},
        }
    first = reports[0]["machine"]
    return {
        "machine": {key: first[key] for key in ("commit", "src_sha256", "python", "implementation", "nproc")},
        "workloads": out,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reports", type=Path, default=ROOT / ".perfbench")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    reports = [json.loads(path.read_text()) for path in sorted(args.reports.glob("report-*.json"))]
    if not reports:
        parser.error(f"no report-*.json under {args.reports}")
    args.out.write_text(json.dumps(summarize(reports), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
