#!/usr/bin/env python3
"""Benchmark of the cvmhunet package: training and tiled evaluation, end to end and per layer.

    python3 perfbench/run.py --workload wide_train --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and driven only through ``cvmhunet.cli.main`` and the public
names of its modules.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the same work once untraced and once
traced and reports the per-layer metrics.  The last line of stdout is the
result JSON; a fuller record (environment, every layer, every check) goes to
``.bench_out/results/`` and the spans of a traced run to ``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk_train", "wide_train", "tile_eval")
SETUP_ROUNDS = 3
THREAD_VARS = ("CVMH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
FUNCTIONAL_MAC_OPS = ("depthwise_conv2d", "conv2d", "linear", "conv1d")
FUNCTIONAL_OPS = ("layer_norm", "softplus", "silu", "gelu")
MODULES = ("blocks.CVSSBlock", "blocks.CrossScanModule", "blocks.EFFN", "mfms.MFMSBlock")
DATA_FNS = ("augment_pair", "load_pair", "tile_image", "stitch_tiles")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", dest="setup_into", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _environment(np, source_sha256: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": source_sha256,
    }


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cvmhunet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(w, base, setup_times, pixels) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced pass, plus the op-time samples."""
    intervals = [b - a for a, b in zip(base.op_ends, base.op_ends[1:])]
    # training throughput over the steps after the first, which carries
    # first-call warm-up; the host runs identical steps in slow and fast phases
    # of several seconds, and a mean over the run moves smoothly with the share
    # of each, where the median step jumps from one phase's speed to the other's
    if w.kind == "train":
        px_per_s = len(intervals) * w.batch * w.tile**2 / _steady_s(base)
    else:
        px_per_s = pixels / base.wall_s
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "px_per_s": (px_per_s, "px/s"),
        "op_s_p50": (statistics.median(intervals), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    return metrics, {"op_intervals_s": intervals, "wall_s": base.wall_s}


def per_layer(summary: dict, n_ops: int, nodes: int, overhead: float, peaks: tuple[int, int]) -> dict:
    """Per-layer metrics of the traced pass; counts and times are per op."""
    m: dict[str, tuple[float, str]] = {}

    def per(x):
        return x / n_ops

    def autograd(span: str, macs: bool):
        f, b = summary.get(span + ".fwd"), summary.get(span + ".bwd")
        if f:
            m[f"{span}.fwd_s"] = (per(f["s"]), "s")
            if macs:
                m[f"{span}.macs"] = (per(f["macs"]), "MAC")
                m[f"{span}.mac_per_s"] = (f["macs"] / f["s"], "MAC/s")
        if b:
            m[f"{span}.bwd_s"] = (per(b["s"]), "s")
        return f, b

    f, b = autograd("ssm.selective_scan", macs=True)
    m["ssm.selective_scan.calls"] = (per(f["calls"]), "count")
    m["ssm.selective_scan.fwd_peak_bytes"] = (peaks[0], "B")
    if b:
        m["ssm.selective_scan.bwd_peak_bytes"] = (peaks[1], "B")
    for op in FUNCTIONAL_MAC_OPS:
        autograd(f"functional.{op}", macs=True)
    for op in FUNCTIONAL_OPS:
        autograd(f"functional.{op}", macs=False)

    def seconds(span: str, metric: str | None = None):
        if span in summary:
            m[metric or f"{span}.s"] = (per(summary[span]["s"]), "s")

    seconds("scan.flatten_spatial")
    seconds("scan.unflatten_spatial")
    seconds("tensor.backward")
    m["tensor.nodes"] = (per(nodes), "count")
    m["tensor.moveaxis.calls"] = (per(summary["tensor.moveaxis"]["calls"]), "count")
    seconds("tensor.moveaxis")
    for mod in MODULES:
        seconds(mod)
        m[f"{mod}.self_s"] = (per(summary[mod]["self_s"]), "s")
    net = summary["network.CVMHUNet"]
    fwd_macs = sum(st["macs"] for name, st in summary.items() if name.endswith(".fwd"))
    m["network.CVMHUNet.fwd_s"] = (per(net["s"]), "s")
    m["network.CVMHUNet.mac_per_s"] = (fwd_macs / net["s"], "MAC/s")
    seconds("losses.segmentation_loss")
    seconds("optim.AdamW.step")
    for fn in DATA_FNS:
        seconds(f"data.{fn}")
    tiles = summary["data.tile_image"]["info"]
    m["data.tile_useful_ratio"] = (sum(u for u, _ in tiles) / sum(t for _, t in tiles), "ratio")
    seconds("metrics.ConfusionMatrix.update")
    for fn in ("save_tensors", "load_tensors"):
        span = f"checkpoint.{fn}"
        if span in summary:
            seconds(span)
            m[f"{span}.bytes"] = (sum(summary[span]["info"]), "B")
    m["trace.overhead"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _steady_s(p) -> float:
    """Time from the first op boundary to the last, leaving out first-call warm-up."""
    return p.op_ends[-1] - p.op_ends[0]


def _setup_child(args, work: Path) -> float:
    """Set up in a child process so its memory stays out of this process's peak RSS."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-into", str(work)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, w, workloads, checks_mod, source_sha: str) -> dict:
    work = OUT / "work" / f"{w.name}-s{args.seed}-{os.getpid()}"
    try:
        setup_times = [_setup_child(args, work) for _ in range(SETUP_ROUNDS)]
        ops = w.ops(args.seconds)
        paths = workloads.paths(work)
        passes = [workloads.run_pass(w, ops, work, "untraced", record_spans=False)]
        if args.trace:
            passes.append(workloads.run_pass(w, ops, work, "traced", record_spans=True))

        checks: list[tuple[str, bool, str]] = []
        digests = []
        for p in passes:
            checks.append((f"exit_code.{p.out_dir.name}", p.code == 0, f"cvmh exited {p.code}"))
            checks.append((f"ops_done.{p.out_dir.name}", len(p.op_ends) == ops, f"{len(p.op_ends)} of {ops}"))
            if w.kind == "train":
                csv = p.out_dir / "loss.csv"
                digests.append(checks_mod.digest(csv) if csv.exists() else "missing")
            else:
                digests.append(checks_mod.sha256_text(p.output))
        base = passes[0]
        pixels = workloads.image_pixels(paths["manifest"])
        if w.kind == "train" and (base.out_dir / "loss.csv").exists():
            totals = checks_mod.read_losses(base.out_dir / "loss.csv")
            checks += checks_mod.losses(totals, ops, must_decrease=w.name == "desk_train")
        if w.kind == "eval" and base.code == 0:
            checks.append(("eval_report", *checks_mod.eval_report(base.output, pixels)))
            code, oracle_out = workloads.cvmh(["eval", "--oracle", "--manifest", str(paths["manifest"])])
            checks.append(("oracle", *(checks_mod.oracle(oracle_out) if code == 0 else (False, f"exit {code}"))))
        stage0 = workloads.scan_inputs(workloads.stage0_scan_shape(w), args.seed)
        checks.append(("scan_reference", *checks_mod.scan_reference(stage0, w.config.scan_block)))
        key = f"{w.name}|seed={args.seed}|ops={ops}|src={source_sha[:16]}"
        checks.append(("determinism", *checks_mod.same_as_before(OUT / "digests.json", key, digests[0])))

        e2e, samples = end_to_end(w, base, setup_times, pixels) if base.code == 0 else ({}, {})
        record = {"end_to_end": e2e, "samples": samples, "setup_times_s": setup_times,
                  "digests": digests, "ops": ops}
        if w.kind == "train":
            record["op_tail"] = workloads.percentile_tail(samples.get("op_intervals_s", []))
        else:
            record["checkpoint_loss_digest"] = checks_mod.digest(paths["ckpt_loss"])
        if args.trace:
            traced = passes[1]
            checks.append(("trace_transparent", digests[0] == digests[1], "traced output equals untraced"))
            checks.append(("mac_coverage", *checks_mod.mac_coverage(
                traced.tracer.first_forward_macs("network.CVMHUNet"), w.config)))
            stamp = f"{w.name}-s{args.seed}-{os.getpid()}"
            traced.tracer.write(OUT / "spans" / f"{stamp}.csv.gz")
            summary = traced.tracer.summary()
            peaks = workloads.scan_peaks(set(summary["ssm.selective_scan.fwd"]["info"]), args.seed,
                                         grad=w.kind == "train")
            record["per_layer"] = per_layer(summary, max(1, len(traced.op_ends)), traced.tracer.nodes,
                                            _steady_s(traced) / _steady_s(base), peaks)
        record["checks"] = checks
        record["failed"] = min(ops, (ops - len(base.op_ends)) + sum(1 for _, ok, _ in checks if not ok))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _select(wanted: list[dict], computed: dict) -> dict:
    out = {}
    for spec in wanted:
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {unit} != {spec['unit']} in BENCHMARK.json")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cvmhunet" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cvmhunet'}", file=sys.stderr)
        return 2
    # single-threaded BLAS before numpy loads; set every knob so an inherited
    # value cannot change the thread count
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    import numpy as np

    import checks as checks_mod
    import workloads
    import cvmhunet

    if Path(cvmhunet.__file__).resolve().parent != ROOT / "src" / "cvmhunet":
        print(f"error: imported cvmhunet from {cvmhunet.__file__}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.setup_into:
        workloads.setup(w, args.seed, args.seconds, Path(args.setup_into))
        print(json.dumps({"setup_s": time.perf_counter() - t_import}))
        return 0

    source_sha = _source_sha256()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = w.ops(args.seconds)
    try:
        record = measure(args, w, workloads, checks_mod, source_sha)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = _select(wanted, record["per_layer"] if args.trace else record["end_to_end"])
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": ops, "failed": ops, "metrics": {}}))
        return 1

    record.update(workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=_environment(np, source_sha))
    results = OUT / "results" / f"{w.name}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, ok, detail in record["checks"]:
        print(f"check {name:<22} {'ok  ' if ok else 'FAIL'} {detail}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    print(f"record: {results.relative_to(ROOT)}")
    failed = record["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
