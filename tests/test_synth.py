"""CPT-driven corpus generator: validation, determinism, planted structure."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlukg.scenes import (
    BrakingLights,
    DistanceBucket,
    Environment,
    OcclusionLevel,
    SceneLabel,
    Surroundings,
    VehiclePosition,
    VehicleState,
    parse_scene_xml,
    serialize_scene_xml,
)
from occlukg.synth import (
    LABEL_FRAME_COUNTS,
    GeneratorError,
    _category_order,
    _draw,
    _draw_table,
    asymmetric_corpus,
    default_config,
    generate_corpus,
    uninformative_config,
    write_corpus,
)

OCCL = SceneLabel.PEDESTRIAN_OCCLUDED
VISIBLE = SceneLabel.PEDESTRIAN_NOT_OCCLUDED
NONE = SceneLabel.NONE_PEDESTRIAN


def scene_label(doc):
    return doc.frames[0].pedestrians_scene


class TestConfigValidation:
    def test_default_is_valid(self):
        cfg = default_config()
        assert cfg.n_scenes == {Environment.REAL: 40, Environment.VIRTUAL: 59}

    def test_label_prior_follows_frame_counts(self):
        cfg = default_config()
        total = sum(LABEL_FRAME_COUNTS.values())
        assert total == 8459 + 9735 + 21520
        for label, count in LABEL_FRAME_COUNTS.items():
            assert cfg.label_prior[label] == pytest.approx(count / total)

    def test_negative_scene_count(self):
        with pytest.raises(GeneratorError, match="negative"):
            dataclasses.replace(default_config(), n_scenes={Environment.REAL: -1})

    @pytest.mark.parametrize("frames", [(0, 5), (5, 3), (-2, -1)])
    def test_bad_frame_range(self, frames):
        with pytest.raises(GeneratorError, match="frames_per_scene"):
            dataclasses.replace(default_config(), frames_per_scene=frames)

    def test_row_must_sum_to_one(self):
        cfg = default_config()
        bad = {OCCL: 0.5, VISIBLE: 0.2, NONE: 0.2}
        with pytest.raises(GeneratorError, match="label_prior"):
            dataclasses.replace(cfg, label_prior=bad)

    def test_negative_probability(self):
        cfg = default_config()
        bad = dict(cfg.label_prior)
        bad[OCCL], bad[VISIBLE] = -0.1, bad[VISIBLE] + bad[OCCL] + 0.1
        with pytest.raises(GeneratorError, match="negative"):
            dataclasses.replace(cfg, label_prior=bad)

    def test_zebra_outside_unit_interval(self):
        cfg = default_config()
        bad = dict(cfg.zebra_given_label)
        bad[OCCL] = 1.5
        with pytest.raises(GeneratorError, match="zebra"):
            dataclasses.replace(cfg, zebra_given_label=bad)

    def test_occluded_row_needs_occluded_mass(self):
        cfg = default_config()
        rows = dict(cfg.occlusion_given_label)
        rows[OCCL] = {OcclusionLevel.NONE: 1.0}
        with pytest.raises(GeneratorError, match="Partial/Full"):
            dataclasses.replace(cfg, occlusion_given_label=rows)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(default_config(), seed=0)


class TestGenerateCorpus:
    def test_scene_counts_and_ids(self, corpus):
        assert len(corpus) == 99
        real = [d for d in corpus if d.context.environment is Environment.REAL]
        virtual = [d for d in corpus if d.context.environment is Environment.VIRTUAL]
        assert len(real) == 40
        assert len(virtual) == 59
        assert real[0].scene_id == "scene-real-0000"
        assert virtual[-1].scene_id == "scene-virtual-0058"
        assert len({d.scene_id for d in corpus}) == 99

    def test_deterministic(self, corpus):
        again = generate_corpus(default_config(), seed=0)
        assert corpus == again

    def test_seed_changes_output(self, corpus):
        other = generate_corpus(default_config(), seed=1)
        assert corpus != other

    def test_every_document_validates(self, corpus):
        # parsing rebuilds every record, and each record checks its labeling rules again
        for doc in corpus:
            assert parse_scene_xml(serialize_scene_xml(doc)) == doc

    def test_label_constant_within_scene(self, corpus):
        for doc in corpus:
            labels = {f.pedestrians_scene for f in doc.frames}
            assert len(labels) == 1

    def test_frame_counts_within_range(self, corpus):
        lo, hi = default_config().frames_per_scene
        for doc in corpus:
            assert lo <= len(doc.frames) <= hi

    def test_pedestrian_records_match_label(self, corpus):
        for doc in corpus:
            label = scene_label(doc)
            for frame in doc.frames:
                if label is NONE:
                    assert frame.pedestrians == ()
                elif label is VISIBLE:
                    assert [p.occlusion for p in frame.pedestrians] == [OcclusionLevel.NONE]
                else:
                    (ped,) = frame.pedestrians
                    if ped.occlusion is OcclusionLevel.FULL:
                        assert ped.visible_fraction < 0.25
                    else:
                        assert ped.occlusion is OcclusionLevel.PARTIAL
                        assert ped.visible_fraction > 0.25

    def test_hard_zero_structure(self, corpus):
        # the default tables plant class-exclusive features; none of the
        # forbidden combinations may ever be generated
        for doc in corpus:
            label = scene_label(doc)
            states = {v.state for f in doc.frames for v in f.vehicles}
            distances = {v.distance for f in doc.frames for v in f.vehicles}
            if label is OCCL:
                assert VehicleState.CONTINUOUS_MOVEMENT not in states
                assert VehicleState.ACCELERATING not in states
                assert DistanceBucket.FAR not in distances
            else:
                assert VehicleState.DECELERATING not in states
            if label is VISIBLE:
                assert doc.context.surroundings is not Surroundings.VEGETATION
            if label is NONE:
                assert not doc.context.zebra_crossing


@pytest.fixture(scope="module")
def big_corpus():
    cfg = dataclasses.replace(default_config(), n_scenes={Environment.REAL: 400})
    return generate_corpus(cfg, seed=7)


class TestFrequencyConvergence:
    def test_label_prior_frequencies(self, big_corpus):
        cfg = default_config()
        counts = {label: 0 for label in SceneLabel}
        for doc in big_corpus:
            counts[scene_label(doc)] += 1
        for label in SceneLabel:
            assert counts[label] / 400 == pytest.approx(cfg.label_prior[label], abs=0.06)

    def test_vehicle_state_frequencies(self, big_corpus):
        occluded_states = [
            v.state
            for doc in big_corpus
            if scene_label(doc) is OCCL
            for f in doc.frames
            for v in f.vehicles
        ]
        frac = occluded_states.count(VehicleState.DECELERATING) / len(occluded_states)
        assert frac == pytest.approx(0.7, abs=0.04)

    def test_lights_follow_state(self, big_corpus):
        decel = [
            v.braking_lights
            for doc in big_corpus
            for f in doc.frames
            for v in f.vehicles
            if v.state is VehicleState.DECELERATING
        ]
        frac = decel.count(BrakingLights.ON) / len(decel)
        assert frac == pytest.approx(0.9, abs=0.04)

    def test_zebra_frequency(self, big_corpus):
        occl_docs = [d for d in big_corpus if scene_label(d) is OCCL]
        frac = sum(d.context.zebra_crossing for d in occl_docs) / len(occl_docs)
        assert frac == pytest.approx(0.75, abs=0.12)


class TestUninformativeConfig:
    def test_rows_identical_across_labels(self):
        cfg = uninformative_config()
        for table in (
            cfg.state_given_label,
            cfg.distance_given_label,
            cfg.surroundings_given_label,
        ):
            rows = [table[label] for label in SceneLabel]
            assert rows[0] == rows[1] == rows[2]
        zebras = set(cfg.zebra_given_label.values())
        assert len(zebras) == 1

    def test_mixture_matches_prior_weights(self):
        base = default_config()
        cfg = uninformative_config()
        expected = sum(
            base.label_prior[label]
            * base.state_given_label[label][VehicleState.DECELERATING]
            for label in SceneLabel
        )
        assert cfg.state_given_label[NONE][VehicleState.DECELERATING] == pytest.approx(
            expected
        )

    def test_rows_still_normalized(self):
        cfg = uninformative_config()
        for label in SceneLabel:
            assert sum(cfg.state_given_label[label].values()) == pytest.approx(1.0)
            assert sum(cfg.surroundings_given_label[label].values()) == pytest.approx(1.0)

    def test_tables_do_not_depend_on_the_hash_seed(self):
        # The mixed rows must not follow set iteration order, which
        # PYTHONHASHSEED decides; hash seeds 0 and 8 once gave different bits.
        script = (
            "from occlukg.cli import _render_flat, render_generator_config\n"
            "from occlukg.synth import uninformative_config\n"
            "print(_render_flat(render_generator_config(uninformative_config())), end='')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        rendered = []
        for hash_seed in ("0", "8"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=60, env=env, check=True,
            )
            rendered.append(proc.stdout)
        assert rendered[0] == rendered[1]
        assert "state.NonePedestrian.Stopped" in rendered[0]

    def test_occlusion_rows_kept(self):
        base = default_config()
        cfg = uninformative_config()
        assert cfg.occlusion_given_label == base.occlusion_given_label

    def test_label_signal_removed(self):
        cfg = dataclasses.replace(
            uninformative_config(), n_scenes={Environment.REAL: 200}
        )
        docs = generate_corpus(cfg, seed=3)
        # decelerating vehicles now appear in pedestrian-free scenes too
        none_states = {
            v.state
            for d in docs
            if scene_label(d) is NONE
            for f in d.frames
            for v in f.vehicles
        }
        assert VehicleState.DECELERATING in none_states


@pytest.fixture(scope="module")
def asym_docs():
    return asymmetric_corpus(seed=0)


class TestAsymmetricCorpus:
    def test_env_counts_match_default(self, asym_docs):
        real = [d for d in asym_docs if d.context.environment is Environment.REAL]
        virtual = [d for d in asym_docs if d.context.environment is Environment.VIRTUAL]
        assert (len(real), len(virtual)) == (40, 59)

    def test_sorted_by_scene_id(self, asym_docs):
        ids = [d.scene_id for d in asym_docs]
        assert ids == sorted(ids)

    def test_virtual_keeps_hard_zeros(self, asym_docs):
        for doc in asym_docs:
            if doc.context.environment is not Environment.VIRTUAL:
                continue
            if scene_label(doc) is not OCCL:
                states = {v.state for f in doc.frames for v in f.vehicles}
                assert VehicleState.DECELERATING not in states

    def test_real_carries_no_correlation(self, asym_docs):
        # in the scrambled half the occluded-only feature leaks into
        # other labels somewhere in the corpus
        real_non_occl_states = {
            v.state
            for d in asym_docs
            if d.context.environment is Environment.REAL and scene_label(d) is not OCCL
            for f in d.frames
            for v in f.vehicles
        }
        assert VehicleState.DECELERATING in real_non_occl_states

    def test_deterministic(self, asym_docs):
        assert asym_docs == asymmetric_corpus(seed=0)


class TestWriteCorpus:
    def test_files_and_manifest(self, tmp_path, corpus):
        subset = corpus[:5]
        write_corpus(subset, tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == sorted([f"{d.scene_id}.xml" for d in subset] + ["manifest.tsv"])
        manifest = (tmp_path / "manifest.tsv").read_text().strip().split("\n")
        assert len(manifest) == 5
        first = manifest[0].split("\t")
        doc = min(subset, key=lambda d: d.scene_id)
        assert first == [
            doc.scene_id,
            doc.context.environment.value,
            scene_label(doc).value,
            str(len(doc.frames)),
        ]

    def test_round_trip_through_xml(self, tmp_path, corpus):
        subset = corpus[:3]
        write_corpus(subset, tmp_path)
        for doc in subset:
            data = (tmp_path / f"{doc.scene_id}.xml").read_bytes()
            assert parse_scene_xml(data) == doc

    def test_empty_corpus_writes_empty_manifest(self, tmp_path):
        write_corpus([], tmp_path)
        assert (tmp_path / "manifest.tsv").read_text() == ""


# sha256 of the concatenated serialize_scene_xml output of each corpus.
# These corpora are the data behind the acceptance and benchmark fixtures,
# so a change to the generator's draws or to the XML bytes shows here.
PINNED_CORPUS_SHA256 = {
    "default-0": "405e1368e7fdf6e7b7d5ff26779864f286a6c736ad72b9c44566cc231d5d4d77",
    "default-1": "d7a626cd7534c2d5a24d66742ad5f8657c034828908f296c7c3d717433fc8554",
    "uninformative-0": "cd1b53b49a822c080eb1c58939158eea933c30f0f06b3086290c824727d5b917",
    "asymmetric-0": "275f8651f8c0e5b094dbd8e9ff0ffc4a1772ac25b12df7ad7eac41aa1438161e",
}


class TestPinnedCorpusBytes:
    @pytest.mark.parametrize(
        "name, make",
        [
            ("default-0", lambda: generate_corpus(default_config(), 0)),
            ("default-1", lambda: generate_corpus(default_config(), 1)),
            ("uninformative-0", lambda: generate_corpus(uninformative_config(), 0)),
            ("asymmetric-0", lambda: asymmetric_corpus(0)),
        ],
    )
    def test_corpus_bytes_are_pinned(self, name, make):
        data = b"".join(serialize_scene_xml(doc) for doc in make())
        assert hashlib.sha256(data).hexdigest() == PINNED_CORPUS_SHA256[name]


weights = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
row_keys = st.one_of(
    st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True),
    st.lists(st.sampled_from(list(VehiclePosition)), min_size=1, unique=True),
    st.lists(st.sampled_from(list(VehicleState)), min_size=1, unique=True),
)


class TestDrawRule:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), row_keys, st.integers(0, 2**32 - 1))
    def test_matches_generator_choice(self, data, keys, seed):
        """Same key and same stream position as keys[rng.choice(n, p=probs)]."""
        row = {k: data.draw(weights) for k in keys}
        if sum(row.values()) == 0:
            row[keys[0]] = 1.0
        ordered = _category_order(row)
        probs = np.array([row[k] for k in ordered], dtype=np.float64)
        probs = probs / probs.sum()
        table = _draw_table(row)
        drawn, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(25):
            assert _draw(drawn, table) == ordered[int(twin.choice(len(ordered), p=probs))]
        assert drawn.bit_generator.state == twin.bit_generator.state

    def test_a_draw_on_a_boundary_skips_zero_weight_keys(self):
        """A uniform on a cumulative step goes right, as searchsorted(side="right") does."""

        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        table = _draw_table({"a": 0.0, "b": 0.5, "c": 0.0, "d": 0.5})
        drawn = [_draw(Fixed(u), table) for u in (0.0, 0.25, 0.5, 0.75)]
        assert drawn == ["b", "b", "d", "d"]
