"""Complex-valued bilinear embedding model over knowledge-graph triples.

Each entity and relation carries a k-dimensional complex vector, stored
as separate real/imaginary float64 arrays. A triple (s, r, o) scores as

    f(s, r, o) = Re( sum_j  e_s[j] * w_r[j] * conj(e_o[j]) )

which expands to the four-term real form used throughout this module.
The asymmetry under swapping s and o (the conjugate sits on the object)
is what lets a single relation embedding capture directed facts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from ..kg import KnowledgeGraph


class CheckpointError(ValueError):
    """Raised when a model cannot be saved, or checkpoint bytes cannot be loaded."""


TABLES = ("ent_re", "ent_im", "rel_re", "rel_im")


@dataclass
class ComplexModel:
    """Embedding tables plus the entity/relation vocabularies they index.

    ``ent_re``/``ent_im`` are (|E|, k); ``rel_re``/``rel_im`` are (|R|, k).
    ``calibration`` is the (a, b) sigmoid map applied by
    triple_probability; (1, 0) until a fit replaces it. ``memo()`` is
    the one cache of prediction-time probabilities, reset whenever
    ``calibration`` changes.

    Construction raises ValueError for a non-finite table value or
    calibration, mismatched shapes, an empty entity table (k = 0 or no
    entity) and a repeated entity or relation name, so no caller checks
    a model again.
    """

    entities: tuple[str, ...]
    relations: tuple[str, ...]
    ent_re: np.ndarray
    ent_im: np.ndarray
    rel_re: np.ndarray
    rel_im: np.ndarray
    calibration: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        self.entities = tuple(self.entities)
        self.relations = tuple(self.relations)
        k = self.k
        for name in TABLES:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        if self.ent_re.shape != (len(self.entities), k) or self.ent_im.shape != self.ent_re.shape:
            raise ValueError("entity embedding shape mismatch")
        if self.rel_re.shape != (len(self.relations), k) or self.rel_im.shape != self.rel_re.shape:
            raise ValueError("relation embedding shape mismatch")
        if not self.ent_re.size:  # a k = 0 model would score every triple 0.0
            raise ValueError(
                f"empty entity table: k = {k} and {len(self.entities)} entities; need both > 0"
            )
        self.calibration = (float(self.calibration[0]), float(self.calibration[1]))
        if not np.isfinite(self.calibration).all():
            raise ValueError(f"calibration {self.calibration} is not finite")
        self.entity_index = {e: i for i, e in enumerate(self.entities)}
        self.relation_index = {r: i for i, r in enumerate(self.relations)}
        for kind, names, index in (
            ("entity", self.entities, self.entity_index),
            ("relation", self.relations, self.relation_index),
        ):
            if len(index) != len(names):  # a repeated name's earlier row could never be read
                first = next(n for i, n in enumerate(names) if index[n] != i)
                raise ValueError(f"duplicate {kind} {first!r}")
        self._memo: dict = {}
        self._memo_calibration = None

    @property
    def k(self) -> int:
        return self.ent_re.shape[1]

    def memo(self) -> dict:
        """occlukg.bayes' prediction memo for the current calibration.

        occlukg.bayes fills it, so each probability it reads is computed
        once per model and calibration. It starts empty on every new
        model (``copy()`` and ``load_checkpoint`` included) and again
        whenever ``calibration`` changes. The first call for a
        calibration makes the four tables read-only: an in-place write
        after it raises ValueError instead of leaving stale
        probabilities behind.
        """
        if self._memo_calibration != self.calibration:
            for name in TABLES:
                getattr(self, name).flags.writeable = False
            self._memo = {}
            self._memo_calibration = self.calibration
        return self._memo

    def copy(self) -> "ComplexModel":
        return ComplexModel(
            entities=self.entities,
            relations=self.relations,
            ent_re=self.ent_re.copy(),
            ent_im=self.ent_im.copy(),
            rel_re=self.rel_re.copy(),
            rel_im=self.rel_im.copy(),
            calibration=self.calibration,
        )


def init_tables(
    entities: Sequence[str], relations: Sequence[str], k: int, seed: int
) -> ComplexModel:
    """Uniform init on [-sqrt(6/(2k)), +sqrt(6/(2k))] per real component.

    The bound is the fan-in/fan-out symmetric one for layers of width k;
    draws happen in a fixed order (entity real, entity imaginary,
    relation real, relation imaginary) so a seed pins the whole model.
    """
    rng = np.random.default_rng(seed)
    # max(k, 1) only keeps the bound finite at k = 0, which the model refuses
    bound = np.sqrt(6.0 / (2.0 * max(k, 1)))
    rows = (len(entities),) * 2 + (len(relations),) * 2
    tables = [rng.uniform(-bound, bound, size=(n, k)) for n in rows]
    return ComplexModel(entities, relations, *tables)


def init_embeddings(kg: "KnowledgeGraph", k: int, seed: int) -> ComplexModel:
    """Fresh model over a graph's entity/relation vocabulary."""
    return init_tables(kg.entities, kg.relations, k, seed)


def _score_arrays(
    s_re: np.ndarray, s_im: np.ndarray,
    r_re: np.ndarray, r_im: np.ndarray,
    o_re: np.ndarray, o_im: np.ndarray,
) -> np.ndarray:
    return (
        np.sum(s_re * r_re * o_re, axis=-1)
        + np.sum(s_im * r_re * o_im, axis=-1)
        + np.sum(s_re * r_im * o_im, axis=-1)
        - np.sum(s_im * r_im * o_re, axis=-1)
    )


def score_triple(model: ComplexModel, subject: str, relation: str, object: str) -> float:
    si = model.entity_index[subject]
    ri = model.relation_index[relation]
    oi = model.entity_index[object]
    return float(
        _score_arrays(
            model.ent_re[si], model.ent_im[si],
            model.rel_re[ri], model.rel_im[ri],
            model.ent_re[oi], model.ent_im[oi],
        )
    )


def score_batch(model: ComplexModel, idx: np.ndarray) -> np.ndarray:
    """Scores for an (n, 3) array of [subject, relation, object] indices."""
    s, r, o = idx[:, 0], idx[:, 1], idx[:, 2]
    return _score_arrays(
        model.ent_re[s], model.ent_im[s],
        model.rel_re[r], model.rel_im[r],
        model.ent_re[o], model.ent_im[o],
    )


def score_gradient(
    model: ComplexModel, subject: str, relation: str, object: str
) -> dict[str, np.ndarray]:
    """Analytic partials of the score w.r.t. the six embedding vectors.

    Keys: s_re, s_im, r_re, r_im, o_re, o_im; each value has shape (k,).
    The expressions follow directly from the four-term product form.
    """
    si = model.entity_index[subject]
    ri = model.relation_index[relation]
    oi = model.entity_index[object]
    s_re, s_im = model.ent_re[si], model.ent_im[si]
    r_re, r_im = model.rel_re[ri], model.rel_im[ri]
    o_re, o_im = model.ent_re[oi], model.ent_im[oi]
    p = {}
    p["s_re"], p["s_im"] = _subject_partials(r_re, r_im, o_re, o_im)
    p["r_re"], p["r_im"] = _relation_partials(s_re, s_im, o_re, o_im)
    p["o_re"], p["o_im"] = _object_partials(s_re, s_im, r_re, r_im)
    return p


def _subject_partials(
    r_re: np.ndarray, r_im: np.ndarray, o_re: np.ndarray, o_im: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P_s(r, o): the partials of the score w.r.t. s_re and s_im."""
    return r_re * o_re + r_im * o_im, r_re * o_im - r_im * o_re


def _relation_partials(
    s_re: np.ndarray, s_im: np.ndarray, o_re: np.ndarray, o_im: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P_r(s, o): the partials of the score w.r.t. r_re and r_im."""
    return s_re * o_re + s_im * o_im, s_re * o_im - s_im * o_re


def _object_partials(
    s_re: np.ndarray, s_im: np.ndarray, r_re: np.ndarray, r_im: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P_o(s, r): the partials of the score w.r.t. o_re and o_im."""
    return s_re * r_re - s_im * r_im, s_im * r_re + s_re * r_im


# --- Checkpoint format --------------------------------------------------
#
# Little-endian binary layout:
#   magic   4 bytes  b"OCKG"
#   version u32      currently 1
#   k       u32
#   |E|     u32
#   |R|     u32
#   a, b    f64 x 2  calibration map ((1, 0) when never fitted)
#   ent_re  f64 x |E|*k   row-major
#   ent_im  f64 x |E|*k
#   rel_re  f64 x |R|*k
#   rel_im  f64 x |R|*k
# Entity and relation id tables travel in a text sidecar, one id per
# line, entities first, then a single line "---", then relations.

CHECKPOINT_MAGIC = b"OCKG"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIII dd")


def save_checkpoint(model: ComplexModel) -> tuple[bytes, bytes]:
    """Return (binary checkpoint, text sidecar) for a model.

    CheckpointError if a name is the sidecar's separator line or holds a
    newline, since the sidecar could not carry it.
    """
    for name in (*model.entities, *model.relations):
        if name == "---" or "\n" in name:
            raise CheckpointError(f"the sidecar cannot carry the name {name!r}")
    a, b = model.calibration
    blob = bytearray(
        _HEADER.pack(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            model.k,
            len(model.entities),
            len(model.relations),
            a,
            b,
        )
    )
    for arr in (model.ent_re, model.ent_im, model.rel_re, model.rel_im):
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    sidecar = "\n".join([*model.entities, "---", *model.relations]) + "\n"
    return bytes(blob), sidecar.encode("utf-8")


def load_checkpoint(blob: bytes, sidecar: bytes) -> ComplexModel:
    """The model save_checkpoint wrote; CheckpointError on any corrupt or non-finite input."""
    if len(blob) < _HEADER.size:
        raise CheckpointError("checkpoint shorter than header")
    magic, version, k, n_ent, n_rel, a, b = _HEADER.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    expected = _HEADER.size + 8 * k * (2 * n_ent + 2 * n_rel)
    if len(blob) != expected:
        raise CheckpointError(
            f"checkpoint length {len(blob)} != expected {expected} for header counts"
        )
    lines = sidecar.decode("utf-8").split("\n")
    if lines[-1] == "":  # the sidecar's final newline
        lines.pop()
    try:
        sep = lines.index("---")
    except ValueError:
        raise CheckpointError("sidecar missing --- separator") from None
    entities = tuple(lines[:sep])
    relations = tuple(lines[sep + 1 :])
    if len(entities) != n_ent or len(relations) != n_rel:
        raise CheckpointError(
            f"sidecar lists {len(entities)} entities / {len(relations)} relations, "
            f"header says {n_ent} / {n_rel}"
        )
    offset = _HEADER.size
    arrays = []
    for rows in (n_ent, n_ent, n_rel, n_rel):
        count = rows * k
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays.append(arr.reshape(rows, k).astype(np.float64))
        offset += 8 * count
    try:
        return ComplexModel(entities, relations, *arrays, calibration=(a, b))
    except ValueError as exc:  # the model's own checks; the shapes are checked above
        raise CheckpointError(str(exc)) from None
