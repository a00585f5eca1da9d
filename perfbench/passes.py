"""One measured pass of one workload, run in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/passes.py --workload predict --seed 3 --traced 0

A pass sets up its inputs from the seed, runs the timed part once,
checks the outputs and prints one JSON object as its last line.  The
runner (``run.py``) starts passes one after another and aggregates
them; each pass is its own process so garbage-collector state and peak
memory belong to that pass alone.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import expit  # noqa: E402

import occlukg.bayes as bayes_mod  # noqa: E402
import occlukg.harness as harness_mod  # noqa: E402
import occlukg.kg as kg_mod  # noqa: E402
import occlukg.kge.model as model_mod  # noqa: E402
import occlukg.kge.ranking as ranking_mod  # noqa: E402
import occlukg.scenes as scenes_mod  # noqa: E402
from occlukg.bayes import HYPOTHESES  # noqa: E402
from occlukg.harness import (  # noqa: E402
    ConfusionMatrix,
    ExperimentSpec,
    compute_metrics,
)
from occlukg.kg import PROTOTYPE_FOR_LABEL, ROAD_SCENE  # noqa: E402
from occlukg.kge import (  # noqa: E402
    AdamState,
    TrainingConfig,
    adam_step,
    corrupt_batch,
    init_tables,
    score_batch,
)
from occlukg.kge.calibrate import PROBABILITY_FLOOR  # noqa: E402
from occlukg.scenes import Environment, SceneLabel  # noqa: E402
from occlukg.synth import default_config, generate_corpus  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, summarize  # noqa: E402

# `occlukg.kge.calibrate` as an attribute is the re-exported function.
calibrate_mod = importlib.import_module("occlukg.kge.calibrate")

HORIZON = 30
ETA = 15
BATCH = 2048
K = 32
OCCLUDED = SceneLabel.PEDESTRIAN_OCCLUDED

# Quality gate on the trainer, by epochs trained: the largest mean training
# loss of the last epoch that a pass accepts.  F1 cannot gate: it swings
# 0.0-0.96 across seeds.  The loss is steady across seeds: over seeds 0-23
# and 300-309 it was 1.095-1.137 after 6 epochs (sd 0.009) and 1.261-1.290
# after 2 (sd 0.006).  A trainer that drops the relation gradients ends at
# 1.167-1.181 after 6 epochs on seeds 0 and 5, above the 6-epoch limit.
# After 2 epochs it ends at 1.299-1.302, too close to the seeds' own range
# to gate, so the 2-epoch limit only catches grosser faults: a scatter that
# drops repeated rows ends at 1.40.
FINAL_LOSS_LIMIT = {6: 1.155, 2: 1.32}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Work per pass; ``tiny`` exists for the benchmark's own tests."""

    headline_epochs: int = 6
    predict_train_epochs: int = 2
    predict_scenes: int = 30
    predict_frames: tuple[int, int] = (60, 90)
    headline_relabel: int = 1
    ingest_reparse: int = 1
    ingest_scenes: tuple[int, int] = (200, 295)  # Real, Virtual: 5x the default corpus
    ingest_counts: tuple[tuple[int, int], tuple[int, int]] = ((160, 40), (250, 45))
    kernel_repeats: int = 7


TINY = Sizes(
    headline_epochs=1,
    predict_train_epochs=1,
    predict_scenes=2,
    predict_frames=(40, 45),
    headline_relabel=1,
    ingest_reparse=1,
    ingest_scenes=(8, 12),
    ingest_counts=((6, 2), (9, 3)),
    kernel_repeats=1,
)


def seeds_for(workload: str, seed: int) -> dict:
    """Every seed a workload uses, derived from the one benchmark seed.

    Seed 0 reproduces the defaults of scripts/run_benchmark.py (corpus
    0, fold 13, training 0).
    """
    out = {"corpus": seed, "fold": 13 + seed, "train": seed}
    if workload == "predict":
        out["held_out_corpus"] = seed + 1_000_003
    return out


def headline_spec(fold_seed: int, train_seed: int, epochs: int) -> ExperimentSpec:
    """The spec of scripts/run_benchmark.py at a fixed epoch count."""
    return ExperimentSpec(
        train_environments=(Environment.VIRTUAL,),
        test_environments=(Environment.VIRTUAL,),
        counts={Environment.REAL: (32, 8), Environment.VIRTUAL: (50, 9)},
        horizon=HORIZON,
        training=TrainingConfig(
            k=K, eta=ETA, learning_rate=0.05, batch_size=BATCH, max_epochs=epochs,
            check_every=1000, patience=5, seed=train_seed,
        ),
        seed=fold_seed,
        validation_ratio=0.0,
    )


class Capture:
    """Wraps ``harness.train`` to keep the TrainingResult it returns."""

    def __init__(self):
        self.result = None
        self.split = None
        self._original = harness_mod.train

    def __enter__(self):
        def capturing(split, config):
            self.split = split
            self.result = self._original(split, config)
            return self.result
        harness_mod.train = capturing
        return self

    def __exit__(self, *exc):
        harness_mod.train = self._original


# --- checks ------------------------------------------------------------


def reference_probabilities(model, triples: list[tuple[str, str, str]]) -> np.ndarray:
    """Calibrated probabilities recomputed from the model tables directly."""
    s = np.array([model.entity_index[t[0]] for t in triples], dtype=np.int64)
    r = np.array([model.relation_index[t[1]] for t in triples], dtype=np.int64)
    o = np.array([model.entity_index[t[2]] for t in triples], dtype=np.int64)
    s_re, s_im = model.ent_re[s], model.ent_im[s]
    r_re, r_im = model.rel_re[r], model.rel_im[r]
    o_re, o_im = model.ent_re[o], model.ent_im[o]
    score = np.sum(s_re * r_re * o_re + s_im * r_re * o_im + s_re * r_im * o_im
                   - s_im * r_im * o_re, axis=1)
    a, b = model.calibration
    return np.clip(expit(a * score + b), PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR)


def check_predictions(model, docs_by_id: dict, preds: list, denominator: str) -> dict[int, str]:
    """Frame index -> first failed check, for every prediction that fails one."""
    bad: dict[int, str] = {}
    triples: list[tuple[str, str, str]] = []
    recorded: list[float] = []
    owner: list[int] = []
    for i, pred in enumerate(preds):
        reports = pred.reports
        if [r.hypothesis for r in reports] != list(HYPOTHESES):
            bad[i] = "hypotheses out of the documented order"
            continue
        best = max(r.clamped for r in reports)
        winner = next(r.hypothesis.label for r in reports if r.clamped == best)
        if pred.predicted is not winner:
            bad[i] = "prediction is not the first argmax of clamped posteriors"
        for r in reports:
            if r.clamped != min(max(r.raw, 0.0), 1.0) or r.clamp_flagged != (r.clamped != r.raw):
                bad.setdefault(i, "clamp inconsistent with raw")
            if denominator == "marginal" and r.recompute_raw() != r.raw:
                bad.setdefault(i, "recompute_raw() differs from raw")
            if r.predicted_label is not pred.predicted:
                bad.setdefault(i, "report carries another predicted label")
            if r.prior == 0.0 and not r.factors:
                continue  # hypothesis whose prototype the model lacks
            proto = PROTOTYPE_FOR_LABEL[r.hypothesis.label]
            triples.append((ROAD_SCENE, "contains", r.hypothesis.label.value))
            recorded.append(r.prior)
            owner.append(i)
            for f in r.factors:
                triples.append((ROAD_SCENE, f.item.relation, f.item.object))
                recorded.append(f.marginal)
                triples.append((proto, f.item.relation, f.item.object))
                recorded.append(f.conditional)
                owner += [i, i]
        doc = docs_by_id[pred.scene_id]
        last = len(doc.frames) - 1
        target = min(pred.frame_index + pred.horizon, last)
        if pred.ground_truth is not doc.frames[target].pedestrians_scene \
                or pred.truncated != (pred.frame_index + pred.horizon > last):
            bad.setdefault(i, "ground truth or truncation ignores the horizon")
    if triples:
        expected = reference_probabilities(model, triples)
        got = np.array(recorded)
        off = np.abs(got - expected) > 1e-12 + 1e-9 * np.abs(expected)
        for j in np.flatnonzero(off):
            bad.setdefault(owner[j], "triple probability differs from the model tables")
    return bad


def confusion_of(preds) -> ConfusionMatrix:
    tp = sum(p.predicted is OCCLUDED and p.ground_truth is OCCLUDED for p in preds)
    fp = sum(p.predicted is OCCLUDED and p.ground_truth is not OCCLUDED for p in preds)
    fn = sum(p.predicted is not OCCLUDED and p.ground_truth is OCCLUDED for p in preds)
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=len(preds) - tp - fp - fn)


def f1_of(cm: ConfusionMatrix) -> float:
    """Occluded-class F1 written out independently of compute_metrics."""
    return 2 * cm.tp / (2 * cm.tp + cm.fp + cm.fn) if cm.tp else 0.0


def prediction_stats(preds) -> dict:
    reports = [r for p in preds for r in p.reports]
    items = sum(len(p.evidence) + len(p.dropped_evidence) for p in preds)
    return {
        "bayes.truncated_frac": sum(p.truncated for p in preds) / len(preds),
        "bayes.clamp_frac": sum(r.clamp_flagged for r in reports) / len(reports),
        "bayes.dropped_item_frac": (
            sum(len(p.dropped_evidence) for p in preds) / items if items else 0.0
        ),
    }


def epoch_losses(result) -> list[float]:
    return [float(h.split("\t")[1]) for h in result.history if h.startswith("epoch")]


def loss_failures(losses: list[float]) -> list[str]:
    """Training must lower the loss, and as far as the trainer did when recorded."""
    failures = []
    if len(losses) > 1 and not losses[-1] < losses[0]:
        failures.append("training loss did not fall")
    limit = FINAL_LOSS_LIMIT.get(len(losses))
    if limit is not None and not losses[-1] <= limit:
        failures.append(f"final training loss {losses[-1]:.4f} is above {limit} "
                        f"for {len(losses)} epochs: the trainer learns less than it did")
    return failures


def models_equal(a, b) -> bool:
    return (
        a.entities == b.entities and a.relations == b.relations
        and a.calibration == b.calibration
        and all(np.array_equal(getattr(a, n), getattr(b, n))
                for n in ("ent_re", "ent_im", "rel_re", "rel_im"))
    )


# --- workloads -----------------------------------------------------------


def scene_xml(config, seed: int) -> list[bytes]:
    """The generated corpus as XML bytes; the documents themselves are dropped."""
    return [scenes_mod.serialize_scene_xml(d) for d in generate_corpus(config, seed)]


def round_trip_failures(config, seed: int, parsed: list) -> int:
    """Scenes where parse_scene_xml(serialize_scene_xml(d)) != d.

    ``parsed`` came from the timed part; the originals are regenerated
    from the seed so that setup holds no second copy of the corpus.
    """
    originals = generate_corpus(config, seed)
    if len(originals) != len(parsed):
        return max(len(originals), len(parsed))
    return sum(d != q for d, q in zip(originals, parsed))


def settle() -> float:
    """End of setup: collect setup garbage so the timed part starts clean."""
    gc.collect()
    return time.perf_counter()


def frame_latency(samples_ms: list[float]) -> dict:
    """Raw per-frame samples for run.py to pool, plus this pass's percentiles."""
    cuts = statistics.quantiles(samples_ms, n=100, method="inclusive")
    return {"frame_ms": samples_ms, "frame_ms_p50": cuts[49], "frame_ms_p95": cuts[94],
            "frame_ms_p99": cuts[98]}


def relabel(model, docs: list, spec, repeats: int) -> tuple[list[float], dict]:
    """Label every frame of the corpus ``repeats`` times with the experiment's model.

    The experiment labels only ~115 test frames, and per-frame cost steps
    with the frame's vehicle count (45% of frames have at most one), so the
    median of so few frames jumps between steps from seed to seed, and a
    window that short makes the tail hostage to one stall of the machine.
    The ~1,270 corpus frames sample the mix steadily.  Returns the samples
    (ms) and each frame's JSON line keyed by (scene, frame index).
    """
    samples = []
    lines = {}
    for doc in docs * repeats:
        for t in range(len(doc.frames)):
            t0 = time.perf_counter_ns()
            pred = bayes_mod.predict_frame(model, doc, t, horizon=spec.horizon,
                                           denominator=spec.denominator)
            line = json.dumps(pred.to_record(), sort_keys=True) + "\n"
            samples.append((time.perf_counter_ns() - t0) / 1e6)
            lines[doc.scene_id, t] = line
    return samples, lines


def run_headline(seeds: dict, sizes: Sizes, trace: "PassTrace") -> dict:
    config = default_config()
    blobs = scene_xml(config, seeds["corpus"])
    spec = headline_spec(seeds["fold"], seeds["train"], sizes.headline_epochs)
    setup_end = settle()

    with Capture() as cap:
        t0 = time.perf_counter()
        with trace.timed():
            docs = [scenes_mod.parse_scene_xml(b) for b in blobs]
            with trace.span("harness.run_experiment"):
                report, preds = harness_mod.run_experiment_with_predictions(docs, spec)
            with trace.span("harness.report"):
                jsonl = "".join(json.dumps(p.to_record(), sort_keys=True) + "\n"
                                for p in preds)
                text, _ = harness_mod.render_report({spec.label(): report})
        wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    frame_ms, relabelled = relabel(cap.result.model, docs, spec, sizes.headline_relabel)

    failures = []
    if "".join(relabelled[p.scene_id, p.frame_index] for p in preds) != jsonl:
        failures.append("relabelling the test frames gave other predictions")
    if round_trip_failures(config, seeds["corpus"], docs):
        failures.append("a generated scene does not survive the XML round trip")
    cm = confusion_of(preds)
    core = compute_metrics(report.confusion)
    if report.confusion != cm or cm.total != len(preds) or report.n_frames != len(preds):
        failures.append("confusion does not count the predicted frames")
    if (core.precision, core.recall, core.f1) != (report.precision, report.recall, report.f1) \
            or abs(core.f1 - f1_of(cm)) > 1e-12:
        failures.append("precision/recall/F1 disagree with compute_metrics")
    bad = check_predictions(cap.result.model, {d.scene_id: d for d in docs}, preds,
                            spec.denominator)
    if bad:
        failures.append(f"{len(bad)} predictions fail checks, e.g. {next(iter(bad.values()))}")
    losses = epoch_losses(cap.result)
    failures += loss_failures(losses)
    if not text.strip():
        failures.append("empty rendered report")

    return {
        "setup_s": setup_end - PROCESS_START,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "frames": sum(len(d.frames) for d in docs),
        "scenes": len(docs),
        **frame_latency(frame_ms),
        "attempted": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "digest": hashlib.sha256(jsonl.encode()).hexdigest(),
        "f1": report.f1,
        "f1_frames": len(preds),
        "final_loss": losses[-1],
        "stats": {
            **prediction_stats(preds),
            "kge.epochs_run": cap.result.epochs_run,
            "kge.train_triples": len(cap.split.train),
            "kg.entities": cap.split.kg.n_entities,
            "kg.relations": len(cap.split.kg.relations),
            "kg.triples": len(cap.split.kg.triples),
            "scenes.xml_bytes": sum(len(b) for b in blobs),
        },
    }


def trained_model(seeds: dict, epochs: int):
    """Train and calibrate through the experiment path; keep only the model."""
    corpus = generate_corpus(default_config(), seed=seeds["corpus"])
    with Capture() as cap:
        harness_mod.run_experiment_with_predictions(
            corpus, headline_spec(seeds["fold"], seeds["train"], epochs)
        )
    graph = {
        "kge.train_triples": len(cap.split.train),
        "kg.entities": cap.split.kg.n_entities,
        "kg.triples": len(cap.split.kg.triples),
    }
    # The model was calibrated in place by the experiment.
    return cap.result.model, graph, epoch_losses(cap.result)


def run_predict(seeds: dict, sizes: Sizes, trace: "PassTrace") -> dict:
    model, graph, losses = trained_model(seeds, sizes.predict_train_epochs)
    blob, sidecar = model_mod.save_checkpoint(model)
    held_cfg = dataclasses.replace(
        default_config(),
        n_scenes={Environment.VIRTUAL: sizes.predict_scenes},
        frames_per_scene=sizes.predict_frames,
    )
    blobs = scene_xml(held_cfg, seeds["held_out_corpus"])
    setup_end = settle()

    frame_ns = []
    preds = []
    docs = []
    lines = []
    t0 = time.perf_counter()
    with trace.timed():
        loaded = model_mod.load_checkpoint(blob, sidecar)
        for xml in blobs:
            doc = scenes_mod.parse_scene_xml(xml)
            docs.append(doc)
            for t in range(len(doc.frames)):
                f0 = time.perf_counter_ns()
                pred = bayes_mod.predict_frame(loaded, doc, t, horizon=HORIZON,
                                               denominator="marginal")
                with trace.span("harness.report"):
                    lines.append(json.dumps(pred.to_record(), sort_keys=True) + "\n")
                frame_ns.append(time.perf_counter_ns() - f0)
                preds.append(pred)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()

    pass_failures = loss_failures(losses)
    if not models_equal(loaded, model):
        pass_failures.append("checkpoint round trip changed the model or its calibration")
    if round_trip_failures(held_cfg, seeds["held_out_corpus"], docs):
        pass_failures.append("a generated scene does not survive the XML round trip")
    cm = confusion_of(preds)
    core = compute_metrics(cm)
    if cm.total != len(preds) or abs(core.f1 - f1_of(cm)) > 1e-12:
        pass_failures.append("confusion or F1 disagrees with the predicted frames")
    bad = check_predictions(loaded, {d.scene_id: d for d in docs}, preds, "marginal")
    failures = list(pass_failures)
    if bad:
        failures.append(f"{len(bad)} predictions fail checks, e.g. {next(iter(bad.values()))}")
    return {
        "setup_s": setup_end - PROCESS_START,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "frames": len(preds),
        "scenes": len(docs),
        **frame_latency([ns / 1e6 for ns in frame_ns]),
        "attempted": len(preds),
        "failed": len(preds) if pass_failures else len(bad),
        "failures": failures,
        "digest": hashlib.sha256("".join(lines).encode()).hexdigest(),
        "f1": core.f1,
        "f1_frames": len(preds),
        "final_loss": losses[-1],
        "stats": {
            **prediction_stats(preds),
            **graph,
            "kge.epochs_run": 0,
            "scenes.xml_bytes": sum(len(b) for b in blobs),
        },
    }


def run_ingest(seeds: dict, sizes: Sizes, trace: "PassTrace") -> dict:
    real, virtual = sizes.ingest_scenes
    config = dataclasses.replace(
        default_config(), n_scenes={Environment.REAL: real, Environment.VIRTUAL: virtual}
    )
    blobs = scene_xml(config, seeds["corpus"])
    counts = dict(zip((Environment.REAL, Environment.VIRTUAL), sizes.ingest_counts))
    setup_end = settle()

    parse_ns = []
    t0 = time.perf_counter()
    with trace.timed():
        docs = []
        for b in blobs:
            p0 = time.perf_counter_ns()
            docs.append(scenes_mod.parse_scene_xml(b))
            parse_ns.append(time.perf_counter_ns() - p0)
        kg = kg_mod.link_prototypes(kg_mod.build_kg(docs), docs)
        tsv = kg_mod.export_kg_tsv(kg)
        imported = kg_mod.import_kg_tsv(tsv)
        folds = kg_mod.assign_folds(docs, counts, seeds["fold"], 0.1)
        split = kg_mod.make_split(folds)
        train_idx = split.kg.to_index_array(split.train)
        model = model_mod.init_embeddings(split.kg, K, seeds["train"])
        ranking = ranking_mod.evaluate_ranking(model, split.validation, split.all_known())
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()

    pass_failures = []
    if imported != kg:
        pass_failures.append("import_kg_tsv(export_kg_tsv(kg)) != kg")
    if tuple(split.kg.sorted_triples()) != split.train:
        pass_failures.append("train fold is not the training graph")
    ents, rels = np.array(split.kg.entities), np.array(split.kg.relations)
    rebuilt = zip(ents[train_idx[:, 0]], rels[train_idx[:, 1]], ents[train_idx[:, 2]])
    if [tuple(t) for t in rebuilt] != [(t.subject, t.relation, t.object) for t in split.train]:
        pass_failures.append("to_index_array does not map back to the train triples")
    if len(ranking.ranks) != len(set(split.validation)) or not 0 < ranking.mrr <= 1:
        pass_failures.append("ranking report does not cover the validation triples")
    frame_ms = [ns / 1e6 / len(d.frames) for ns, d in zip(parse_ns, docs)]
    reparsed = []
    for _ in range(sizes.ingest_reparse):
        reparsed = []
        for b in blobs:
            p0 = time.perf_counter_ns()
            reparsed.append(scenes_mod.parse_scene_xml(b))
            frame_ms.append((time.perf_counter_ns() - p0) / 1e6 / len(reparsed[-1].frames))
    if reparsed != docs:
        pass_failures.append("parsing the same XML again gave other documents")
    bad_scenes = round_trip_failures(config, seeds["corpus"], docs)
    failures = list(pass_failures)
    if bad_scenes:
        failures.append(f"{bad_scenes} scenes do not survive the XML round trip")
    return {
        "setup_s": setup_end - PROCESS_START,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "frames": sum(len(d.frames) for d in docs),
        "scenes": len(docs),
        **frame_latency(frame_ms),
        "attempted": len(docs),
        "failed": len(docs) if pass_failures else min(bad_scenes, len(docs)),
        "failures": failures,
        "digest": hashlib.sha256(tsv).hexdigest(),
        "f1": None,
        "f1_frames": 0,
        "final_loss": None,
        "stats": {
            "kge.epochs_run": 0,
            "kge.train_triples": len(split.train),
            "kge.ranking_queries": 2 * len(ranking.ranks),
            "kg.entities": kg.n_entities,
            "kg.triples": len(kg.triples),
            "scenes.xml_bytes": sum(len(b) for b in blobs),
        },
    }


WORKLOADS = {"headline": run_headline, "predict": run_predict, "ingest": run_ingest}


# --- tracing ---------------------------------------------------------------


def install_trace(tracer: Tracer, unique: set) -> None:
    """Wrap every layer boundary where its caller looks it up."""
    spans = [
        (scenes_mod, "parse_scene_xml", "scenes.parse_scene_xml"),
        (harness_mod, "assign_folds", "kg.assign_folds"),
        (harness_mod, "make_split", "kg.make_split"),
        (harness_mod, "train", "kge.train"),
        (harness_mod, "calibrate", "kge.calibrate"),
        (harness_mod, "predict_frame", "bayes.predict_frame"),
        (harness_mod, "render_report", "harness.render_report"),
        (bayes_mod, "predict_frame", "bayes.predict_frame"),
        (kg_mod, "build_kg", "kg.build_kg"),
        (kg_mod, "link_prototypes", "kg.link_prototypes"),
        (kg_mod, "export_kg_tsv", "kg.export_tsv"),
        (kg_mod, "import_kg_tsv", "kg.import_tsv"),
        (kg_mod, "assign_folds", "kg.assign_folds"),
        (kg_mod, "make_split", "kg.make_split"),
        (kg_mod.KnowledgeGraph, "to_index_array", "kg.to_index_array"),
        (model_mod, "load_checkpoint", "kge.load_checkpoint"),
        (model_mod, "init_embeddings", "kge.init_embeddings"),
        (ranking_mod, "evaluate_ranking", "kge.evaluate_ranking"),
    ]
    for owner, attr, name in spans:
        tracer.wrap(owner, attr, name)
    tracer.wrap(bayes_mod, "triple_probability", "kge.triple_probability", counted=True)
    tracer.wrap(calibrate_mod, "score_triple", "kge.score_triple", counted=True,
                on_call=lambda model, s, r, o: unique.add((s, r, o)))


KERNELS = ("kge.corrupt_batch_ms", "kge.score_batch_ms", "kge.adam_step_ms")


def kernel_ms(repeats: int, seed: int, n_ent: int, n_rel: int) -> dict:
    """Public training kernels timed alone at the trained graph's batch shape."""
    rng = np.random.default_rng(seed)
    model = init_tables([f"e{i}" for i in range(n_ent)], [f"r{i}" for i in range(n_rel)],
                        K, seed)
    pos = np.stack([rng.integers(n_ent, size=BATCH), rng.integers(n_rel, size=BATCH),
                    rng.integers(n_ent, size=BATCH)], axis=1)
    idx = np.concatenate((pos, corrupt_batch(pos, ETA, n_ent, rng)))
    tables = [model.ent_re, model.ent_im, model.rel_re, model.rel_im]
    states = [AdamState.for_params(t) for t in tables]
    grads = [rng.normal(size=t.shape) for t in tables]

    def timed(fn) -> float:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples)) * 1e3

    def adam_all():
        for st, t, g in zip(states, tables, grads):
            adam_step(st, t, g, 1e-6)

    return {
        "kge.corrupt_batch_ms": timed(lambda: corrupt_batch(pos, ETA, n_ent, rng)),
        "kge.score_batch_ms": timed(lambda: score_batch(model, idx)),
        "kge.adam_step_ms": timed(adam_all),
    }


def layer_metrics(result: dict, summary: dict, unique: set, kernels: dict) -> dict:
    inc = summary["inclusive_s"]
    layer = summary["layer_self_s"]
    calls = summary["calls"]
    stats = result["stats"]
    epochs = stats["kge.epochs_run"]
    train_s = inc.get("kge.train", 0.0)
    epoch_s = train_s / epochs if epochs else 0.0
    batches = -(-stats["kge.train_triples"] // BATCH)
    per_batch_s = sum(kernels.values()) / 1e3
    score_calls = calls.get("kge.score_triple", 0)
    parse_s = inc.get("scenes.parse_scene_xml", 0.0)
    return {
        "trace.wall_s": inc["bench.timed"],
        "kge.train_s": train_s,
        "kge.epoch_s": epoch_s,
        "kge.epochs_run": epochs,
        "kge.rows_scored": epochs * stats["kge.train_triples"] * (1 + ETA),
        **kernels,
        "kge.epoch_residual_s": epoch_s - batches * per_batch_s if epochs else 0.0,
        "kge.score_triple_calls": score_calls,
        "kge.score_unique_frac": len(unique) / score_calls if score_calls else 0.0,
        "kge.score_triple_s": inc.get("kge.score_triple", 0.0),
        "kge.triple_probability_s": inc.get("kge.triple_probability", 0.0),
        "kge.checkpoint_load_s": inc.get("kge.load_checkpoint", 0.0),
        "kge.calibrate_s": inc.get("kge.calibrate", 0.0),
        "kge.evaluate_ranking_s": inc.get("kge.evaluate_ranking", 0.0),
        "kge.ranking_queries": stats.get("kge.ranking_queries", 0),
        "kge.self_s": layer.get("kge", 0.0),
        "bayes.predict_frame_s": inc.get("bayes.predict_frame", 0.0),
        "bayes.self_s": layer.get("bayes", 0.0),
        "bayes.truncated_frac": stats.get("bayes.truncated_frac", 0.0),
        "bayes.clamp_frac": stats.get("bayes.clamp_frac", 0.0),
        "bayes.dropped_item_frac": stats.get("bayes.dropped_item_frac", 0.0),
        "scenes.parse_s": parse_s,
        "scenes.parse_mb_per_s": (
            stats["scenes.xml_bytes"] / 1e6 / parse_s if parse_s else 0.0
        ),
        "scenes.self_s": layer.get("scenes", 0.0),
        "kg.build_kg_s": inc.get("kg.build_kg", 0.0),
        "kg.link_prototypes_s": inc.get("kg.link_prototypes", 0.0),
        "kg.export_tsv_s": inc.get("kg.export_tsv", 0.0),
        "kg.import_tsv_s": inc.get("kg.import_tsv", 0.0),
        "kg.make_split_s": inc.get("kg.make_split", 0.0),
        "kg.to_index_array_s": inc.get("kg.to_index_array", 0.0),
        "kg.entities": stats["kg.entities"],
        "kg.triples": stats["kg.triples"],
        "kg.self_s": layer.get("kg", 0.0),
        "harness.self_s": layer.get("harness", 0.0),
        "harness.report_s": inc.get("harness.report", 0.0),
        "runtime.gc_s": inc.get("runtime.gc", 0.0),
        "runtime.gc_collections": calls.get("runtime.gc", 0),
        "bench.self_s": layer.get("bench", 0.0),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PassTrace:
    """Layer spans of the timed part; in untraced passes every call is a no-op."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.tracer = Tracer()
        self.unique_triples: set = set()

    @contextmanager
    def timed(self):
        """The timed part: wrappers and the GC hook exist only inside it."""
        if not self.traced:
            yield
            return
        install_trace(self.tracer, self.unique_triples)
        self.tracer.start_gc_hook()
        try:
            with self.tracer.span("bench.timed"):
                yield
        finally:
            self.tracer.stop_gc_hook()
            self.tracer.unwrap_all()

    def span(self, name: str):
        return self.tracer.span(name) if self.traced else nullcontext()


def runtime_provenance(seeds: dict) -> dict:
    """Library versions and BLAS threads as this pass actually ran them."""
    import ctypes
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(path).name] = int(getattr(lib, symbol)())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": threads,
        "seeds": seeds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for tests")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    sizes = TINY if args.tiny else Sizes()
    trace = PassTrace(bool(args.traced))
    seeds = seeds_for(args.workload, args.seed)
    result = WORKLOADS[args.workload](seeds, sizes, trace)
    result["provenance"] = runtime_provenance(seeds)
    if trace.traced:
        summary = summarize(trace.tracer.spans, trace.tracer.counters)
        stats = result["stats"]
        if stats["kge.epochs_run"]:
            kernels = kernel_ms(sizes.kernel_repeats, args.seed,
                                stats["kg.entities"], stats["kg.relations"])
        else:  # no training in this workload's timed part
            kernels = dict.fromkeys(KERNELS, 0.0)
        result["layers"] = layer_metrics(result, summary, trace.unique_triples, kernels)
        if args.spans_out is not None:
            trace.tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
