"""The columnar knowledge graph against a set-of-Triple reference.

Each reference helper builds a plain ``set`` of ``Triple`` with one
Python statement per fact, and ``reference_views`` derives the
vocabularies, index array, TSV bytes and statistics from that set by
sorting. The graph code must agree with them on generated corpora and on
drawn string triples, and its ingest path must not build the set.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlukg.kg import (
    ONTOLOGY,
    PROTOTYPE_FOR_LABEL,
    VEHICLE_STATE_ENTITY,
    EntityKind,
    KgBuildError,
    KgStats,
    KnowledgeGraph,
    Triple,
    build_kg,
    class_level_triples,
    entity_kind,
    export_kg_tsv,
    frame_entity,
    import_kg_tsv,
    kg_stats,
    lane_entity,
    link_prototypes,
    scene_entity,
)
from occlukg.synth import default_config, generate_corpus


def reference_build_kg(corpus) -> set[Triple]:
    triples = set()
    for doc in corpus:
        sid = doc.scene_id
        s_ent = scene_entity(sid)
        ctx = doc.context
        if ctx.zebra_crossing:
            triples.add(Triple(s_ent, "thereIs", "ZebraCrossing"))
        triples.add(Triple(s_ent, "hasSurroundings", ctx.surroundings.value))
        triples.add(Triple(s_ent, "hasLanes", lane_entity(ctx.lanes)))
        prev_f_ent = None
        for frame in doc.frames:
            f_ent = frame_entity(sid, frame.frame_number)
            triples.add(Triple(s_ent, "includes", f_ent))
            triples.add(Triple(f_ent, "contains", frame.pedestrians_scene.value))
            if prev_f_ent is not None:
                triples.add(Triple(prev_f_ent, "nextFrame", f_ent))
                triples.add(Triple(f_ent, "prevFrame", prev_f_ent))
            prev_f_ent = f_ent
            for p in frame.pedestrians:
                triples.add(Triple(f"ped:{sid}:{p.pedestrian_id}", "hasOcclusionLevel",
                                   p.occlusion.value))
            for v in frame.vehicles:
                v_ent = f"veh:{sid}:{frame.frame_number}:{v.vehicle_id}"
                state_ent = VEHICLE_STATE_ENTITY[v.state]
                triples.add(Triple(f_ent, "includes", state_ent))
                triples.add(Triple(v_ent, "hasState", state_ent))
                triples.add(Triple(v_ent, "hasBrakingLights", v.braking_lights.value))
                triples.add(Triple(v_ent, "hasDistance", v.distance.value))
                triples.add(Triple(v_ent, "hasPosition", v.position.value))
    return triples


def reference_link_prototypes(triples: set[Triple], corpus) -> set[Triple]:
    linked = set(triples)
    for doc in corpus:
        for frame in doc.frames:
            f_ent = frame_entity(doc.scene_id, frame.frame_number)
            assert Triple(f_ent, "contains", frame.pedestrians_scene.value) in triples
            linked.add(Triple(f_ent, "instanceOfSceneClass",
                              PROTOTYPE_FOR_LABEL[frame.pedestrians_scene]))
    return linked | class_level_triples(corpus)


def reference_import_kg_tsv(data: bytes) -> set[Triple]:
    """Records end at "\\n", one "\\r" before it dropped; blank ones skipped."""
    triples = set()
    lines = data.decode("utf-8").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if lineno < len(lines) and line.endswith("\r"):
            line = line[:-1]
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise KgBuildError(f"line {lineno}: expected 3 tab-separated fields")
        triples.add(Triple(*fields))
    return triples


def reference_views(triples: set[Triple]):
    """(entities, relations, index array, TSV bytes, stats) of a triple set."""
    ordered = sorted(triples)
    entities = tuple(sorted({t.subject for t in triples} | {t.object for t in triples}))
    relations = tuple(sorted({t.relation for t in triples}))
    ent = {e: i for i, e in enumerate(entities)}
    rel = {r: i for i, r in enumerate(relations)}
    index = np.array([[ent[s], rel[r], ent[o]] for s, r, o in ordered], dtype=np.int64)
    tsv = "".join(f"{s}\t{r}\t{o}\n" for s, r, o in ordered).encode("utf-8")
    stats = KgStats(
        n_entities=len(entities),
        n_relations=len(relations),
        n_triples=len(triples),
        per_relation=dict(Counter(t.relation for t in triples)),
        frames_per_label=dict(Counter(
            t.object for t in triples
            if t.relation == "contains" and entity_kind(t.subject) is EntityKind.FRAME
        )),
    )
    return entities, relations, index.reshape(-1, 3), tsv, stats


def assert_matches(kg: KnowledgeGraph, triples: set[Triple]) -> None:
    entities, relations, index, tsv, stats = reference_views(triples)
    assert kg.entities == entities
    assert kg.relations == relations
    got = kg.to_index_array()
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, index)
    assert export_kg_tsv(kg) == tsv
    assert kg_stats(kg) == stats
    assert kg.n_triples == len(triples)
    assert kg.triples == triples
    assert all(type(t) is Triple for t in kg.triples)
    assert kg.sorted_triples() == sorted(triples)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_corpus_graphs_match_the_reference(seed):
    corpus = generate_corpus(default_config(), seed=seed)
    built, want = build_kg(corpus), reference_build_kg(corpus)
    assert_matches(built, want)
    linked = link_prototypes(built, corpus)
    want_linked = reference_link_prototypes(want, corpus)
    assert_matches(linked, want_linked)
    data = export_kg_tsv(linked)
    assert reference_import_kg_tsv(data) == want_linked
    assert_matches(import_kg_tsv(data), want_linked)
    assert import_kg_tsv(data) == linked


# Ids of every entity kind, foreign (UNKNOWN-kind) ids, and non-ASCII
# text, including characters str.splitlines breaks at. No field holds a
# tab, newline or carriage return, which cannot be written.
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("ab:0-_ é漢\x00\x0b\x0c\x1c\x1d\x1e\x85  "),
        st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    ),
    max_size=6,
)
_ENTITY = st.one_of(
    st.sampled_from(["None", "On", "ZebraCrossing", "PedestrianOccluded", "RoadScene"]),
    st.builds(str.__add__, st.sampled_from(["", "scene:", "frame:", "ped:", "veh:"]), _TEXT),
)
_TRIPLES = st.lists(
    st.tuples(_ENTITY, st.sampled_from(sorted(ONTOLOGY.relations)), _ENTITY), max_size=25
)


@settings(max_examples=150, deadline=None)
@given(_TRIPLES, st.integers(min_value=0, max_value=2))
def test_drawn_graphs_match_the_reference(drawn, repeats):
    # duplicates in the input collapse to one triple
    kg = KnowledgeGraph(triples=drawn * repeats + drawn)
    want = {Triple(*t) for t in drawn}
    assert_matches(kg, want)
    assert kg == KnowledgeGraph(triples=reversed(drawn))
    data = export_kg_tsv(kg)
    assert reference_import_kg_tsv(data) == want
    assert import_kg_tsv(data) == kg
    assert import_kg_tsv(data.replace(b"\n", b"\r\n")) == kg


def test_empty_graph_matches_the_reference():
    assert_matches(KnowledgeGraph(), set())
    assert_matches(import_kg_tsv(b"\n\r\n"), set())
    assert KnowledgeGraph() == import_kg_tsv(b"")


def test_ingest_path_never_materializes_triples(monkeypatch):
    corpus = generate_corpus(default_config(), seed=2)[:12]

    def refuse(self):
        raise AssertionError("the ingest path read the Triple view of a graph")

    monkeypatch.setattr(KnowledgeGraph, "triples", property(refuse))
    monkeypatch.setattr(KnowledgeGraph, "sorted_triples", refuse)
    kg = link_prototypes(build_kg(corpus), corpus)
    assert import_kg_tsv(export_kg_tsv(kg)) == kg
    assert kg.n_triples == len(reference_link_prototypes(reference_build_kg(corpus), corpus))
