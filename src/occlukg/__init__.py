"""Occluded-pedestrian prediction from road-scene knowledge graphs.

Pipeline: annotated scene XML -> knowledge graph with class prototypes
-> complex-valued embeddings trained from scratch -> calibrated triple
probabilities -> Bayesian per-frame label prediction -> experiment
reports. See the subpackages: scenes (parsing/validation), kg (graph
compilation and splits), kge (model/training/ranking/calibration),
bayes (inference), synth (corpus generation), harness (experiments),
cli (command line).
"""

from .scenes import (
    BrakingLights,
    DistanceBucket,
    Environment,
    FrameAnnotation,
    OcclusionLevel,
    PedestrianRecord,
    RoadSceneDocument,
    SceneContext,
    SceneLabel,
    SceneParseError,
    SceneValidationError,
    Surroundings,
    VehiclePosition,
    VehicleRecord,
    VehicleState,
    parse_scene_xml,
    serialize_scene_xml,
    validate_document,
)
from .kg import (
    KgBuildError,
    KnowledgeGraph,
    OntologySchema,
    SplitError,
    Triple,
    TripleSplit,
    build_kg,
    build_linked_kg,
    export_kg_tsv,
    import_kg_tsv,
    kg_stats,
    link_prototypes,
)
from .kge import (
    ComplexModel,
    RankingReport,
    TrainingConfig,
    calibrate,
    evaluate_ranking,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
    score_triple,
    train,
    triple_probability,
)
from .bayes import (
    EvidenceItem,
    FramePrediction,
    Hypothesis,
    PosteriorReport,
    posterior,
    predict_frame,
)
from .synth import GeneratorConfig, default_config, generate_corpus, uninformative_config
from .harness import (
    ConfusionMatrix,
    ExperimentSpec,
    MetricsReport,
    compute_metrics,
    render_report,
    run_cross_environment,
    run_experiment,
)

__version__ = "0.1.0"
