"""Train/test every environment combination and print the summary table.

Runs the six Real/Virtual/Mixed train-test pairings under one shared
fold assignment, so each pairing is scored on the same held-out scenes
per test environment.  Pairings that share a training set share one
model, so the six rows train three models.  With the default training
settings one run took 67 s on two cores (120 s when every row trained
its own model); --epochs trades accuracy for speed.

At the default corpus seed 0 the Real test fold holds no occluded
frame.  The three ->Real rows (Real->Real, Mixed->Real, Virtual->Real)
therefore read F1 0.00 by the zero rule (tp = fn = 0), whatever the
model predicts; only their false positives say anything about it.
ROADMAP open item 1 covers folds without positives.
"""

import argparse
import time
from pathlib import Path

from occlukg.harness import headline_spec, render_report, run_cross_environment
from occlukg.synth import default_config, generate_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus-seed", type=int, default=0)
    for name, default in headline_spec.__kwdefaults__.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=default)
    parser.add_argument("--out", type=Path, default=None, help="file for the JSONL records")
    args = parser.parse_args()
    settings = {name: getattr(args, name) for name in headline_spec.__kwdefaults__}

    start = time.monotonic()
    corpus = generate_corpus(default_config(), seed=args.corpus_seed)
    base = headline_spec(**settings)

    reports = run_cross_environment(corpus, base)
    text, jsonl = render_report(reports)
    print(text)
    print(f"wall time: {time.monotonic() - start:.0f}s")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(jsonl, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
