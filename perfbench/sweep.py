#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds, one run at a time, and summarize.

    python3 perfbench/sweep.py                       # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --workloads tile_eval
    python3 perfbench/sweep.py --trace 1 --seeds 1

For each workload and metric it prints the median over seeds, the quartiles
and their distance as a share of the median (``statistics.quantiles``, n=4),
next to the metric's bound from ``BENCHMARK.json``.  Every result line and
the summary are also written to ``.bench_out/sweeps/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n{done.stdout}{done.stderr}")
                continue
            result["wall_s"] = wall
            runs.setdefault(workload, []).append(result)
            shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4])
            print(f"{workload} seed {seed}: {wall:.1f} s  {shown}", flush=True)

    summary = {}
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs, {sum(r['wall_s'] for r in results):.0f} s)")
        for m in metric_specs:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            summary.setdefault(workload, {})[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
            limit = f"  bound {bound:g}" if bound is not None else ""
            print(f"  {m['name']:<40} {med:12.6g} {m['unit']:<6} spread {spread:6.3f}{limit}")
    out = ROOT / ".bench_out" / "sweeps" / f"sweep-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"\nsummary: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
