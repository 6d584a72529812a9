"""agrec: attribute-graph collaborative filtering with cold-start item scoring.

The names below load their module on first use (PEP 562), so that importing
one light module, such as agrec.extractor, does not import numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": ("BipartiteGraph", "GraphBundle", "Vocabulary",
               "build_item_attribute_graph", "build_user_graph"),
    "ingest": ("ItemMetadata", "PriceBuckets", "SplitDataset",
               "filter_min_popularity", "fit_price_buckets",
               "parse_interactions", "split_dataset",
               "tokenize_text_attributes"),
    "model": ("LayerStack", "ModelConfig", "cold_item_embedding",
              "final_embeddings", "forward", "load_checkpoint",
              "save_checkpoint"),
    "training": ("bpr_loss", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
