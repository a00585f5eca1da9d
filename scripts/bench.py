"""Measure a change against its parent with the benchmark and write a BENCH_*.json file.

    python scripts/bench.py --parent <rev> --out BENCH_<n>.json [--workload NAME ...]

For each workload of ``BENCHMARK.json``, or only those named by the
repeatable ``--workload`` (to rerun one while iterating), it runs
``perfbench/run.py --trace 0`` at the workload's held-out seed, for the benchmark's
``run_seconds``, in ``PAIRS`` pairs: one run on the parent and one on the
change per pair, alternating which side goes first.  Both sides run from
snapshots exported with ``git archive`` into a temporary directory: the
parent from its commit, the change from a tree of this working tree as
``git add -A`` would stage it (written through a temporary index, so the
real index is left alone).  The tree's hash is recorded, so a BENCH file
names the content it measured, and edits made while it runs do not reach
it.  Before each run the side's snapshot is moved to one fixed path,
``<tmp>/tree``, and moved back afterwards, so every path a run sees is the
same for both sides.  Both sides run under this interpreter, on this
machine.

The file records, per workload, seed and end-to-end metric of
``BENCHMARK.json``: every run's value, each side's median and quartiles,
the median and quartiles of the per-pair change/parent ratio (a drift of
the host that both runs of a pair share cancels in it), the pairs the
change won (ties count for neither side), and two verdicts.
``gain`` holds when the change won at least nine tenths of the pairs and
the medians differ, in the better direction, by more than the parent's
quartile spread.  ``within_bound`` holds when the change's median is no
worse than the parent's by more than the metric's bound; it is not
``resolved`` when the parent's quartile spread is wider than that bound,
unless every run of the change reads better than every run of the
parent.  It also records the workloads it covers, failed operations,
the revisions, seeds, package versions and core count.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def held_out_seeds() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.HELD_OUT_SEEDS)


def git(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, check=True,
                          env=env)


def resolve(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").stdout.decode().strip()


def snapshot() -> str:
    """Hash of the tree ``git add -A`` would stage from the working tree; the index is untouched."""
    with tempfile.TemporaryDirectory(prefix="occlukg-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env).stdout.decode().strip()


def export(tree: str, into: Path) -> Path:
    """Extract the files of the commit or tree ``tree`` into the directory ``into``."""
    into.mkdir(parents=True)
    archive = git("archive", "--format=tar", tree).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def run_side(checkout: Path, at: Path, workload: str, seed: int, seconds: float) -> dict:
    """``run_once`` with the snapshot ``checkout`` moved to ``at`` for the run, then moved back."""
    checkout.rename(at)
    try:
        return run_once(at, workload, seed, seconds)
    finally:
        at.rename(checkout)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(metric: dict, runs: list[dict]) -> dict:
    """One end-to-end metric over the pairs of one workload and seed."""
    name, lower = metric["name"], metric["better"] == "lower"
    sides = {side: spread([run[side]["metrics"][name] for run in runs]) for side in SIDES}
    parent, change = sides["parent"], sides["change"]
    wins = sum(
        (c < p) if lower else (c > p)
        for p, c in zip(parent["values"], change["values"])
    )
    improvement = (parent["median"] - change["median"]) * (1 if lower else -1)
    every_run_better = (max(change["values"]) < min(parent["values"]) if lower
                        else min(change["values"]) > max(parent["values"]))
    worsening = -improvement / abs(parent["median"]) if parent["median"] else 0.0
    ratios = [c / p for p, c in zip(parent["values"], change["values"]) if p]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **sides,
        "pair_ratio": spread(ratios) if len(ratios) > 1 else None,
        "change_wins": wins,
        "pairs": len(runs),
        "median_change_frac": (change["median"] / parent["median"] - 1.0
                               if parent["median"] else None),
        "parent_iqr": parent["q3"] - parent["q1"],
        "gain": wins >= math.ceil(0.9 * len(runs))
                and improvement > parent["q3"] - parent["q1"],
        "within_bound": worsening <= metric["bound"],
        "resolved": every_run_better or (
            parent["q3"] - parent["q1"] <= metric["bound"] * abs(parent["median"])),
    }


def parse_args(argv, benchmark: dict) -> argparse.Namespace:
    """The options; ``workload`` lists the workloads to run, in ``BENCHMARK.json`` order."""
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help="run only this workload; repeatable (default: all of "
                             f"{', '.join(names)})")
    args = parser.parse_args(argv)
    args.workload = [name for name in names if name in (args.workload or names)]
    return args


def main(argv=None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)

    held_out = held_out_seeds()
    seconds = benchmark["run_seconds"]
    revisions = {
        "parent": resolve(args.parent),
        "change": snapshot(),
        "change_base": resolve("HEAD"),
    }
    record = {
        "command": "perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{seconds:g} --trace 0",
        "revisions": revisions,
        "workloads": args.workload,
        "pairs": PAIRS,
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "results": [],
    }
    with tempfile.TemporaryDirectory(prefix="occlukg-bench-") as tmp:
        checkouts = {side: export(revisions[side], Path(tmp) / side) for side in SIDES}
        tree = Path(tmp) / "tree"
        for workload in args.workload:
            seed = held_out[workload]
            runs = []
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                run = {"first": order[0]}
                for side in order:
                    run[side] = run_side(checkouts[side], tree, workload, seed, seconds)
                    print(f"{workload} seed {seed} pair {pair + 1}/{PAIRS} {side}: "
                          f"wall_s {run[side]['metrics']['wall_s']:.3f}", file=sys.stderr)
                runs.append(run)
            record["results"].append({
                "workload": workload,
                "seed": seed,
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
                "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in SIDES},
                "metrics": {m["name"]: compare(m, runs) for m in benchmark["end_to_end"]},
                "first": [r["first"] for r in runs],
            })
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for result in record["results"]:
        for name, m in result["metrics"].items():
            ratio = m["pair_ratio"]["median"] if m["pair_ratio"] else math.nan
            print(f"{result['workload']:<9} {result['seed']:>8} {name:<14} "
                  f"parent {m['parent']['median']:>10.4g}  change {m['change']['median']:>10.4g}  "
                  f"pair ratio {ratio:.4f}  wins {m['change_wins']}/{m['pairs']}  "
                  f"gain {m['gain']}  within_bound {m['within_bound']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
