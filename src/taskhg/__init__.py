"""taskhg: multitask pretraining for recommendation on task hypergraphs."""

from .config import LossKind, TAVariant, TrainConfig
from .data import (
    InteractionDataset,
    generate_synthetic_dataset,
    split_interactions,
)
from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConstructionError,
    DataError,
    DivergenceError,
    TaskHGError,
)
from .evaluate import EvalReport, MetricRow, evaluate, ndcg_at_k, recall_at_k
from .hypergraph import Hypergraph, build_hypergraph
from .io import (
    Checkpoint,
    DatasetStats,
    TaskManifest,
    emit_report,
    format_report,
    load_checkpoint,
    load_dataset,
    parse_manifest,
    save_checkpoint,
    write_synthetic_dataset,
)
from .model import EmbeddingTable, init_embeddings
from .protocols import cold_start_eval, run_ablation
from .tasks import (
    NodeSide,
    TaskHypergraph,
    TaskKind,
    build_attribute_hypergraph,
    build_recommendation_hypergraphs,
    build_relation_hypergraph,
    quantize_continuous,
)
from .train import FinetuneResult, PretrainResult, TrainingLog, finetune, pretrain

__version__ = "0.1.0"
