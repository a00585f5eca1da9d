"""The occlukg benchmark: one workload, one seed, closed loop.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 10 --trace 0

Workloads (see perfbench/METRICS.md for what each stresses and why):
  headline  the paper's Virtual->Virtual experiment, XML bytes to report
  predict   checkpoint load plus per-frame prediction on long held-out scenes
  ingest    parse, graph build, TSV round trip, split, index, check-0 ranking

A run is a sequence of passes, each in a fresh interpreter started only
after the previous one ended (one client, one call at a time).  Passes
repeat until their timed parts add up to ``--seconds`` and at least
``MIN_PASSES`` have run.  ``--trace 0`` reports the end-to-end metrics as medians
over passes; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object.  Exit
status is 0 when that line was printed, non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("headline", "predict", "ingest")
# Ingest's passes are short and its speed follows the host's the most, so
# its median is taken over more of them.
MIN_PASSES = {"headline": 4, "predict": 4, "ingest": 6}
MIN_TRACE_PAIRS = 2
RUN_LIMIT_S = 165.0
BLAS_THREADS = 1

# Seeds kept out of tuning: a later claim must also hold on these.
HELD_OUT_SEEDS = {"headline": 7919, "predict": 104729, "ingest": 1299709}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "frames_per_s": "1/s",
    "scenes_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p95": "ms",
}

# Layers have no queues between them in this one process, so there is no
# wait time to report; every layer metric is busy time, work or a ratio.
COUNT_METRICS = {
    "kge.epochs_run", "kge.rows_scored", "kge.score_triple_calls",
    "kge.ranking_queries", "kg.entities", "kg.triples", "runtime.gc_collections",
}


def layer_unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_ms"):
        return "ms"
    return "s"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout has no .git)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        return f"unresolved {ref[5:]}"
    return ref


def run_pass(workload: str, seed: int, traced: bool, tiny: bool, index: int,
             deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced))]
    if tiny:
        cmd.append("--tiny")
    if traced:
        cmd += ["--spans-out", str(OUT / f"spans-{workload}-seed{seed}-pass{index}.json")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass {index} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def mark_divergent(passes: list[dict]) -> None:
    """Every pass uses the same inputs, so every output must be identical."""
    reference = passes[0]["digest"]
    for p in passes[1:]:
        if p["digest"] != reference:
            p["failed"] = p["attempted"]
            p["failures"].append("output differs byte-wise from the first pass")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict]) -> dict:
    frame_ms = [x for p in passes for x in p["frame_ms"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "frames_per_s": statistics.median(p["frames"] / p["wall_s"] for p in passes),
        "scenes_per_s": statistics.median(p["scenes"] / p["wall_s"] for p in passes),
        "frame_ms_p50": quantile(frame_ms, 50),
        "frame_ms_p95": quantile(frame_ms, 95),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"]
    out = {
        name: {"value": statistics.median(p["layers"][name] for p in traced),
               "unit": layer_unit(name)}
        for name in names
    }
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    out["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="total timed seconds to measure (at least MIN_PASSES passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs; for testing the benchmark itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "occlukg" / "__init__.py").is_file():
        print(f"error: no occlukg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    provenance = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "benchmark_seed": args.seed,
        "held_out_seed": HELD_OUT_SEEDS[args.workload],
        "openblas_threads_requested": BLAS_THREADS,
        "clients": 1,
        "loop": "closed",
    }
    OUT.mkdir(exist_ok=True)

    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            measured = sum(p["wall_s"] for p in untraced + traced)
            done = len(traced) >= MIN_TRACE_PAIRS if args.trace else len(untraced) >= MIN_PASSES[args.workload]
            if done and measured >= args.seconds:
                break
            if done and untraced:
                per_pass = (time.monotonic() - started) / len(untraced + traced)
                if time.monotonic() + per_pass * (2 if args.trace else 1) > deadline:
                    break
            untraced.append(run_pass(args.workload, args.seed, False, args.tiny,
                                     len(untraced) + len(traced), deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, True, args.tiny,
                                       len(untraced) + len(traced), deadline))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    mark_divergent(passes)
    provenance.update(passes[0]["provenance"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    f1 = passes[0]["f1"]

    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        frame_ms = [x for p in untraced for x in p["frame_ms"]]
        print(f"{'frame_ms_p99':<28} {quantile(frame_ms, 99):>14.6g} ms "
              f"(not bounded: it sits on the knee of GC-hit frames)")
    print(f"{'failed_frac':<28} {failed / attempted:>14.6g} frac "
          f"({failed} of {attempted} operations)")
    print(f"{'f1':<28} {'n/a' if f1 is None else format(f1, '14.6g'):>14} "
          f"occluded class, over {passes[0]['f1_frames']} labelled frames; "
          f"compare per seed, it swings across seeds")
    loss = passes[0]["final_loss"]
    print(f"{'final_loss':<28} {'n/a' if loss is None else format(loss, '14.6g'):>14} "
          f"mean training loss of the last epoch; gated in every pass")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"frame_ms samples: {sum(len(p['frame_ms']) for p in untraced)} "
          f"(pooled over the untraced passes)")
    for p in passes:
        for message in p["failures"]:
            print(f"check failed: {message}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    record = {"provenance": provenance, "metrics": metrics, "attempted": attempted,
              "failed": failed, "f1": f1, "final_loss": loss,
              "passes": [{k: v for k, v in p.items() if k != "frame_ms"} for p in passes]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
