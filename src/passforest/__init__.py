"""Grammar-validated representation and auto-tuning of nested pass pipelines.

The package models optimization pipelines as ordered forests of manager
trees, validates them against the nesting grammar, mines synergistic
pass pairs offline into a weighted graph, searches the space of valid
forests with a structure-aware genetic algorithm, and refines the
winning sequence's structure through binary partitioning. Evaluation
runs either against an external ``opt`` binary or a deterministic mock
with faithful hierarchical execution semantics.
"""

__version__ = "0.1.0"

from .errors import (
    BackendUnavailable,
    ChromosomeLengthMismatch,
    DuplicatePass,
    EmptyManager,
    InvalidBaseline,
    InvalidPipeline,
    LevelMismatch,
    MalformedIR,
    ParseError,
    PassForestError,
    PipelineSyntaxError,
    SchemaError,
    TopLevelNotModule,
    UnknownPass,
)
from .evaluation import EvaluationResult, OptBackend, count_ir_instructions
from .experiments import tune
from .forest import (
    Leaf,
    Manager,
    PipelineForest,
    leaf_sequence,
    minimal_wrap,
    random_forest,
    validate,
)
from .grammar import parse_pipeline, print_pipeline
from .metrics import ProgramResult, aggregate, overoz
from .mock import (
    MockBackend,
    MockFunction,
    MockProgram,
    load_mock_program,
    mock_evaluate,
    schedule_of,
)
from .refine import (
    PartitionChromosome,
    RefineConfig,
    RefinementResult,
    decision_points,
    decode,
    encode,
    refine,
)
from .registry import (
    PassInfo,
    PassLevel,
    PassRegistry,
    default_registry,
    load_registry,
)
from .search import (
    DrawTables,
    Individual,
    SearchConfig,
    crossover,
    mutate,
    run_search,
    weighted_walk_init,
)
from .skeletons import build_skeleton_variant, representative_skeleton
from .synergy import (
    SynergyEdge,
    SynergyGraph,
    classify_synergy_type,
    load_graph,
    mine_synergies,
    save_graph,
)
