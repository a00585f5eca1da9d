"""Contrast an informative training environment against an uninformative one.

Builds a corpus where only the Virtual scenes carry feature-label
correlations (the Real half is generated from label-independent
mixtures), then trains once on each environment and scores both models
on the same held-out Virtual scenes.  The Virtual-trained model should
win by a wide margin; the printed gap quantifies it.
"""

import argparse
import time

from occlukg.harness import headline_spec, run_experiment
from occlukg.scenes import Environment
from occlukg.synth import asymmetric_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus-seed", type=int, default=0)
    for name, default in headline_spec.__kwdefaults__.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=default)
    args = parser.parse_args()
    settings = {name: getattr(args, name) for name in headline_spec.__kwdefaults__}

    start = time.monotonic()
    corpus = asymmetric_corpus(seed=args.corpus_seed)

    results = {}
    for env in (Environment.VIRTUAL, Environment.REAL):
        spec = headline_spec((env,), **settings)
        report = run_experiment(corpus, spec)
        results[env] = report
        print(f"{report.spec_echo['label']:<16} "
              f"F1 {report.f1:.3f} precision {report.precision:.3f} "
              f"recall {report.recall:.3f} ({report.n_frames} frames)")

    gap = results[Environment.VIRTUAL].f1 - results[Environment.REAL].f1
    print(f"informative-minus-uninformative F1 gap: {gap:.3f}")
    print(f"wall time: {time.monotonic() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
