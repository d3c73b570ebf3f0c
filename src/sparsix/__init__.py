"""Sparse high-dimensional embedding retrieval.

Labels get fixed random K-sparse codes (one bucket per chunk); each chunk
trains its own small classifier against few-hot OR-targets, independently of
every other chunk.  At query time the per-chunk probability rows are pruned
to their top-m buckets, candidates come out of per-chunk inverted indexes,
and candidate scores are exact code dot products, so retrieval quality
degrades only through the candidate set, never through the scores.

Serving imports no SciPy.  Only training needs ``scipy.sparse``, so
``train_all`` is imported from :mod:`sparsix.train` on first use.
"""
from .codes import CodeConfig, LabelCodebook, build_codebook
from .corpus import CorpusFormatError, parse_corpus, read_block, read_header, write_corpus
from .features import Document, hash_features, make_document
from .index import InvertedIndex, build_index, lookup
from .infer import InferParams, Prediction, predict, predict_block, predict_full
from .manifest import load_ensemble, load_serving, save_ensemble
from .metrics import MetricReport, evaluate, precision_at_k, recall_at_k
from .model import ChunkEnsemble, EngineConfig, TrainConfig

__version__ = "0.1.0"

__all__ = [
    "CodeConfig",
    "LabelCodebook",
    "build_codebook",
    "CorpusFormatError",
    "parse_corpus",
    "read_block",
    "read_header",
    "write_corpus",
    "Document",
    "hash_features",
    "make_document",
    "InvertedIndex",
    "build_index",
    "lookup",
    "InferParams",
    "Prediction",
    "predict",
    "predict_block",
    "predict_full",
    "load_ensemble",
    "load_serving",
    "save_ensemble",
    "MetricReport",
    "evaluate",
    "precision_at_k",
    "recall_at_k",
    "ChunkEnsemble",
    "EngineConfig",
    "TrainConfig",
    "train_all",
    "__version__",
]


def __getattr__(name: str):
    if name == "train_all":
        from .train import train_all

        return train_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
