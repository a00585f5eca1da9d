"""Embedding model: init, scoring, analytic gradients, checkpoints."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from occlukg.kg import build_linked_kg
from occlukg.kge.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    ComplexModel,
    init_embeddings,
    init_tables,
    load_checkpoint,
    save_checkpoint,
    score_batch,
    score_gradient,
    score_triple,
)

from conftest import hand_written_checkpoint, model_with_scores


def complex_oracle_score(model, s, r, o):
    """Score via complex arithmetic instead of the four-term real form."""
    si, ri, oi = model.entity_index[s], model.relation_index[r], model.entity_index[o]
    e_s = model.ent_re[si] + 1j * model.ent_im[si]
    w_r = model.rel_re[ri] + 1j * model.rel_im[ri]
    e_o = model.ent_re[oi] + 1j * model.ent_im[oi]
    return float(np.real(np.sum(e_s * w_r * np.conj(e_o))))


class TestInit:
    def test_deterministic_and_bounded(self):
        entities = tuple(f"e{i}" for i in range(7))
        relations = ("r0", "r1")
        a = init_tables(entities, relations, k=16, seed=3)
        b = init_tables(entities, relations, k=16, seed=3)
        bound = np.sqrt(6.0 / 32.0)
        for arr in (a.ent_re, a.ent_im, a.rel_re, a.rel_im):
            assert np.abs(arr).max() <= bound
        assert np.array_equal(a.ent_re, b.ent_re)
        assert np.array_equal(a.rel_im, b.rel_im)
        c = init_tables(entities, relations, k=16, seed=4)
        assert not np.array_equal(a.ent_re, c.ent_re)

    def test_draw_order_is_pinned(self):
        # entity real, entity imaginary, relation real, relation imaginary,
        # each one uniform block from the same seeded generator
        entities, relations, k, seed = ("a", "b", "c"), ("r",), 5, 11
        model = init_tables(entities, relations, k, seed)
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / (2.0 * k))
        for arr, shape in (
            (model.ent_re, (3, k)),
            (model.ent_im, (3, k)),
            (model.rel_re, (1, k)),
            (model.rel_im, (1, k)),
        ):
            assert np.array_equal(arr, rng.uniform(-bound, bound, size=shape))

    def test_fresh_calibration(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        assert model.calibration == (1.0, 0.0)

    def test_empty_entities_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            init_tables((), ("r",), k=2, seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            init_tables(("a", "a"), ("r",), k=2, seed=0)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError, match="k"):
            init_tables(("a",), ("r",), k=0, seed=0)

    def test_from_graph_vocabulary(self, tiny_corpus):
        kg = build_linked_kg(tiny_corpus)
        model = init_embeddings(kg, k=4, seed=0)
        assert model.entities == kg.entities
        assert model.relations == kg.relations
        assert model.ent_re.shape == (kg.n_entities, 4)


class TestModelConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ComplexModel(
                entities=("a", "b"),
                relations=("r",),
                ent_re=np.zeros((2, 3)),
                ent_im=np.zeros((2, 3)),
                rel_re=np.zeros((2, 3)),  # should be one row
                rel_im=np.zeros((2, 3)),
            )

    def test_non_finite_rejected(self):
        ent = np.zeros((2, 3))
        bad = ent.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ComplexModel(
                entities=("a", "b"), relations=("r",),
                ent_re=bad, ent_im=ent, rel_re=np.zeros((1, 3)), rel_im=np.zeros((1, 3)),
            )

    @pytest.mark.parametrize("k, entities", [(0, ("a", "b")), (2, ())])
    def test_empty_entity_table_rejected(self, k, entities):
        tables = [np.zeros((rows, k)) for rows in (len(entities),) * 2 + (1,) * 2]
        with pytest.raises(
            ValueError, match=f"k = {k} and {len(entities)} entities; need both > 0"
        ):
            ComplexModel(entities, ("r",), *tables)

    @pytest.mark.parametrize(
        "entities, relations, named",
        [
            (("b", "a", "a", "b"), ("r",), "duplicate entity 'b'"),
            (("a", "b"), ("r", "s", "s"), "duplicate relation 's'"),
        ],
    )
    def test_repeated_name_rejected_naming_the_first(self, entities, relations, named):
        tables = [np.zeros((rows, 2)) for rows in (len(entities),) * 2 + (len(relations),) * 2]
        with pytest.raises(ValueError, match=named):
            ComplexModel(entities, relations, *tables)

    @pytest.mark.parametrize("calibration", [(float("nan"), 0.0), (1.0, float("-inf"))])
    def test_non_finite_calibration_rejected(self, calibration):
        tables = [np.zeros((rows, 2)) for rows in (2, 2, 1, 1)]
        with pytest.raises(ValueError, match="calibration .* is not finite"):
            ComplexModel(("a", "b"), ("r",), *tables, calibration=calibration)

    def test_copy_is_independent(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        clone = model.copy()
        clone.ent_re[0, 0] += 1.0
        assert model.ent_re[0, 0] != clone.ent_re[0, 0]


class TestScore:
    def test_matches_complex_arithmetic(self):
        model = init_tables(tuple(f"e{i}" for i in range(6)), ("r0", "r1"), k=8, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, o = rng.choice(6, size=2, replace=False)
            r = rng.integers(2)
            got = score_triple(model, f"e{s}", f"r{r}", f"e{o}")
            want = complex_oracle_score(model, f"e{s}", f"r{r}", f"e{o}")
            assert got == pytest.approx(want, abs=1e-12)

    def test_direction_matters(self):
        model = init_tables(("a", "b"), ("r",), k=8, seed=2)
        assert score_triple(model, "a", "r", "b") != pytest.approx(
            score_triple(model, "b", "r", "a"), abs=1e-9
        )

    def test_batch_agrees_with_single(self):
        model = init_tables(tuple("abcdef"), ("r0", "r1"), k=4, seed=3)
        idx = np.array([[0, 0, 1], [2, 1, 3], [5, 0, 4]])
        batch = score_batch(model, idx)
        for row, expected in zip(idx, batch):
            s, r, o = row
            single = score_triple(
                model, model.entities[s], model.relations[r], model.entities[o]
            )
            assert single == pytest.approx(expected, abs=1e-12)

    def test_planted_scores(self):
        model = model_with_scores(
            {("x", "r", "y"): 2.5, ("y", "q", "z"): -1.0, ("x", "q", "z"): 0.75}
        )
        assert score_triple(model, "x", "r", "y") == pytest.approx(2.5)
        assert score_triple(model, "y", "q", "z") == pytest.approx(-1.0)
        assert score_triple(model, "x", "q", "z") == pytest.approx(0.75)
        assert score_triple(model, "x", "r", "z") == pytest.approx(0.0)

    def test_unknown_entity_raises(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        with pytest.raises(KeyError):
            score_triple(model, "a", "r", "missing")


def finite_difference(model, s, r, o, table, row, h=1e-5):
    """Central finite difference of the score along one embedding row."""
    arr = getattr(model, table)
    grad = np.empty(model.k)
    for j in range(model.k):
        original = arr[row, j]
        arr[row, j] = original + h
        up = score_triple(model, s, r, o)
        arr[row, j] = original - h
        down = score_triple(model, s, r, o)
        arr[row, j] = original
        grad[j] = (up - down) / (2 * h)
    return grad


class TestGradient:
    def test_matches_finite_differences(self):
        model = init_tables(tuple(f"e{i}" for i in range(5)), ("r0", "r1"), k=4, seed=7)
        rng = np.random.default_rng(7)
        slots = {
            "s_re": ("ent_re", "subject"),
            "s_im": ("ent_im", "subject"),
            "r_re": ("rel_re", "relation"),
            "r_im": ("rel_im", "relation"),
            "o_re": ("ent_re", "object"),
            "o_im": ("ent_im", "object"),
        }
        for _ in range(20):
            si, oi = rng.choice(5, size=2, replace=False)
            ri = int(rng.integers(2))
            s, r, o = f"e{si}", f"r{ri}", f"e{oi}"
            grads = score_gradient(model, s, r, o)
            rows = {"subject": si, "relation": ri, "object": oi}
            for key, (table, role) in slots.items():
                numeric = finite_difference(model, s, r, o, table, rows[role])
                assert np.allclose(grads[key], numeric, rtol=1e-5, atol=1e-8)

    def test_gradient_shapes(self):
        model = init_tables(("a", "b"), ("r",), k=6, seed=0)
        grads = score_gradient(model, "a", "r", "b")
        assert set(grads) == {"s_re", "s_im", "r_re", "r_im", "o_re", "o_im"}
        assert all(g.shape == (6,) for g in grads.values())


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, tiny_corpus):
        kg = build_linked_kg(tiny_corpus)
        model = init_embeddings(kg, k=5, seed=21)
        model.calibration = (2.5, -0.75)
        blob, sidecar = save_checkpoint(model)
        loaded = load_checkpoint(blob, sidecar)
        assert loaded.entities == model.entities
        assert loaded.relations == model.relations
        assert loaded.calibration == model.calibration
        for name in ("ent_re", "ent_im", "rel_re", "rel_im"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
        for t in list(kg.triples)[:20]:
            original = score_triple(model, t.subject, t.relation, t.object)
            reloaded = score_triple(loaded, t.subject, t.relation, t.object)
            assert original == reloaded  # bit-for-bit, no tolerance

    def test_save_is_deterministic(self):
        model = init_tables(("a", "b"), ("r",), k=3, seed=5)
        assert save_checkpoint(model) == save_checkpoint(model)

    def test_bad_magic(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        blob, sidecar = save_checkpoint(model)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(b"XXXX" + blob[4:], sidecar)

    def test_bad_version(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        blob, sidecar = save_checkpoint(model)
        tampered = blob[:4] + (99).to_bytes(4, "little") + blob[8:]
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tampered, sidecar)

    def test_truncated_blob(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        blob, sidecar = save_checkpoint(model)
        with pytest.raises(CheckpointError, match="length|header"):
            load_checkpoint(blob[:-8], sidecar)

    def test_sidecar_count_mismatch(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        blob, _ = save_checkpoint(model)
        with pytest.raises(CheckpointError, match="sidecar"):
            load_checkpoint(blob, b"a\n---\nr\n")

    def test_sidecar_missing_separator(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        blob, _ = save_checkpoint(model)
        with pytest.raises(CheckpointError, match="---"):
            load_checkpoint(blob, b"a\nb\nr\n")

    @pytest.mark.parametrize(
        "sidecar, named",
        [(b"a\na\n---\nr\ns\n", "entity 'a'"), (b"a\nb\n---\nr\nr\n", "relation 'r'")],
    )
    def test_sidecar_name_listed_twice(self, sidecar, named):
        model = init_tables(("a", "b"), ("r", "s"), k=2, seed=0)
        blob, _ = save_checkpoint(model)
        with pytest.raises(CheckpointError, match=named):
            load_checkpoint(blob, sidecar)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_table_value(self, value):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        blob, sidecar = save_checkpoint(model)
        # the last float of the blob is rel_im's last entry
        tampered = blob[:-8] + struct.pack("<d", value)
        with pytest.raises(CheckpointError, match="rel_im contains non-finite"):
            load_checkpoint(tampered, sidecar)

    def test_non_finite_calibration(self):
        model = init_tables(("a", "b"), ("r",), k=2, seed=0)
        blob, sidecar = save_checkpoint(model)
        a_offset = len(CHECKPOINT_MAGIC) + 4 * 4
        tampered = blob[:a_offset] + struct.pack("<d", float("nan")) + blob[a_offset + 8 :]
        with pytest.raises(CheckpointError, match="calibration"):
            load_checkpoint(tampered, sidecar)

    @pytest.mark.parametrize("k, entities", [(0, ("a", "b")), (2, ())])
    def test_empty_header_rejected(self, k, entities):
        # a k = 0 model would score every triple as 0.0; no model holds such tables
        blob, sidecar = hand_written_checkpoint(k, entities)
        with pytest.raises(CheckpointError, match=f"k = {k} and {len(entities)} entities"):
            load_checkpoint(blob, sidecar)

    def test_hand_written_header_loads(self):
        # the helper above writes the format save_checkpoint does
        model = load_checkpoint(*hand_written_checkpoint(2, ("a", "b"), ("r", "s")))
        assert (model.entities, model.relations, model.k) == (("a", "b"), ("r", "s"), 2)
        assert save_checkpoint(model) == hand_written_checkpoint(2, ("a", "b"), ("r", "s"))

    @pytest.mark.parametrize("name", ["---", "a\nb", "\n"])
    def test_name_the_sidecar_cannot_carry_is_refused(self, name):
        for entities, relations in (((name, "b"), ("r",)), (("a", "b"), (name,))):
            model = init_tables(entities, relations, k=2, seed=0)
            with pytest.raises(CheckpointError, match="sidecar cannot carry"):
                save_checkpoint(model)

    @pytest.mark.parametrize("name", ["a\rb", "a\u2028b", "a\x85b", "a\x0cb", "-", "--- "])
    def test_names_with_other_line_breaks_round_trip(self, name):
        model = init_tables((name, "b"), (name,), k=2, seed=0)
        loaded = load_checkpoint(*save_checkpoint(model))
        assert (loaded.entities, loaded.relations) == (model.entities, model.relations)

    def test_magic_constant(self):
        model = init_tables(("a",), ("r",), k=1, seed=0)
        blob, _ = save_checkpoint(model)
        assert blob[:4] == CHECKPOINT_MAGIC


class TestScoreProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=12))
    def test_score_finite_for_any_seed_and_k(self, seed, k):
        model = init_tables(("a", "b", "c"), ("r",), k=k, seed=seed)
        assert np.isfinite(score_triple(model, "a", "r", "b"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_checkpoint_round_trip_any_seed(self, seed):
        model = init_tables(("a", "b", "c"), ("r0", "r1"), k=3, seed=seed)
        loaded = load_checkpoint(*save_checkpoint(model))
        assert score_triple(loaded, "a", "r1", "c") == score_triple(model, "a", "r1", "c")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Any text, with the sidecar's separator and line breaks drawn often.
_NAMES = st.one_of(
    st.sampled_from(["---", "-", "", "a\nb", "a\rb", "a\u2028b"]),
    st.text(alphabet=st.one_of(st.sampled_from("-\n\r\x85"), st.characters()), max_size=5),
)


@st.composite
def constructible_models(draw):
    entities = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    relations = draw(st.lists(_NAMES, max_size=3, unique=True))
    k = draw(st.integers(min_value=1, max_value=3))
    tables = [
        draw(arrays(np.float64, (rows, k), elements=_FINITE))
        for rows in (len(entities),) * 2 + (len(relations),) * 2
    ]
    return ComplexModel(entities, relations, *tables, calibration=draw(st.tuples(_FINITE, _FINITE)))


class TestCheckpointProperty:
    @settings(max_examples=200, deadline=None)
    @given(constructible_models())
    def test_every_constructible_model_round_trips(self, model):
        names = (*model.entities, *model.relations)
        if any(name == "---" or "\n" in name for name in names):
            # the one refusal: a name the text sidecar cannot carry
            with pytest.raises(CheckpointError, match="sidecar cannot carry"):
                save_checkpoint(model)
            return
        loaded = load_checkpoint(*save_checkpoint(model))
        assert loaded.entities == model.entities
        assert loaded.relations == model.relations
        assert loaded.calibration == model.calibration
        for name in ("ent_re", "ent_im", "rel_re", "rel_im"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
