"""agrec: attribute-graph collaborative filtering with cold-start item scoring."""

__version__ = "0.1.0"

from .graphs import (BipartiteGraph, GraphBundle, Vocabulary,
                     build_item_attribute_graph, build_user_graph)
from .ingest import (ItemMetadata, PriceBuckets, SplitDataset,
                     filter_min_popularity, fit_price_buckets,
                     parse_interactions, split_dataset,
                     tokenize_text_attributes)
from .model import (EmbeddingTables, LayerStack, ModelConfig,
                    cold_item_embedding, final_embeddings, forward,
                    load_checkpoint, save_checkpoint)
from .training import bpr_loss, train

__all__ = [
    "BipartiteGraph", "GraphBundle", "Vocabulary",
    "build_item_attribute_graph", "build_user_graph",
    "ItemMetadata", "PriceBuckets", "SplitDataset", "filter_min_popularity",
    "fit_price_buckets", "parse_interactions", "split_dataset",
    "tokenize_text_attributes",
    "EmbeddingTables", "LayerStack", "ModelConfig", "cold_item_embedding",
    "final_embeddings", "forward", "load_checkpoint", "save_checkpoint",
    "bpr_loss", "train",
    "__version__",
]
