"""Entity and category embeddings over an annotated corpus and a category DAG.

Train with the flat (CE) or hierarchy-weighted (HCE) negative-sampling
objective, then evaluate by concept categorization (clustering purity,
nearest-neighbor classification) and semantic relatedness (Spearman's rho).
"""

from .corpus import (
    CategoryGraph,
    Corpus,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    load_hierarchy,
    prune_to_dag,
)
from .embeddings import EmbeddingIndex, EmbeddingTable, init_embeddings, load_embeddings, save_text
from .errors import CatembedError
from .hierarchy import steps_down
from .sampler import build_noise_table, draw_negatives_batch, pairs_arrays
from .trainer import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CatembedError",
    "CategoryGraph",
    "Corpus",
    "EmbeddingIndex",
    "EmbeddingTable",
    "TrainConfig",
    "Vocabulary",
    "__version__",
    "build_noise_table",
    "build_vocabulary",
    "draw_negatives_batch",
    "init_embeddings",
    "load_corpus",
    "load_embeddings",
    "load_hierarchy",
    "pairs_arrays",
    "prune_to_dag",
    "save_text",
    "steps_down",
    "train",
]
