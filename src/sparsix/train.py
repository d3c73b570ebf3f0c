"""OR-target construction and shared-nothing training of the chunk models.

Each chunk trains independently: its targets come from its own codebook
column, its inputs from its own feature-hash seed, and its shuffle order
from its own derived seed.  A chunk's trained parameters are a pure function
of (block, code config, engine config, train config, chunk), so running
the K chunks serially or across a process pool yields bit-identical models.
Parallelism is across chunks only; within a chunk, batches are processed
sequentially in a fixed order, and each pool worker runs NumPy's BLAS on one
thread.

Every chunk gets the labeled corpus as one :class:`features.DocBlock` of flat
arrays, and builds its inputs and targets once, not per document: one hashing
call over the block's token ids gives the CSR input matrix, one codebook lookup
over its labels the CSR target matrix, and its offsets are their row pointers.
Each batch slices both and takes one :func:`model.batch_step`, the only
loss-and-gradient code in the package.

Targets use positive-only association: a bucket is trained toward 1 whenever
any label pooled into it is relevant to the document, i.e. the few-hot target
is the OR of the document's label codes for that chunk.
"""
from __future__ import annotations

import ctypes
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .codes import CodeConfig, LabelCodebook, build_codebook
from .features import DocBlock, Document, FeatureMode, hash_token_ids, merge_slots
from .hashing import derive_seed
from .model import ChunkModel, apply_update, init_model, quantize_to_f32, zero_adam_state
# train_chunk calls the step through this module's name, where a tracer can wrap it
from .model import batch_step as _batch_step

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EngineConfig:
    """Architecture knobs shared by every chunk model."""

    feature_dim: int
    hidden_dim: int
    feature_mode: FeatureMode = "counts"
    feature_seed: int = 0
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.hidden_dim < 1:
            raise ValueError("feature_dim and hidden_dim must be >= 1")
        if self.feature_dim >= 2**32:
            # token hashes are 32-bit, so no index could reach past 2**32 - 1
            raise ValueError(f"feature_dim must be below 2**32, got {self.feature_dim}")
        if self.feature_mode not in ("counts", "binary"):
            raise ValueError(f"unknown feature mode {self.feature_mode!r}")

    def chunk_feature_seed(self, chunk: int) -> int:
        return derive_seed(self.feature_seed, chunk)

    def chunk_init_seed(self, chunk: int) -> int:
        return derive_seed(self.init_seed, chunk)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule; identical for every chunk."""

    epochs: int
    batch_size: int = 1000
    lr: float = 1e-3
    shuffle_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.workers < 1:
            raise ValueError("epochs, batch_size and workers must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class ChunkEnsemble:
    """The trained engine: a codebook config plus one model per chunk."""

    code_config: CodeConfig
    engine: EngineConfig
    models: list[ChunkModel] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.models) != self.code_config.num_chunks:
            raise ValueError("one model per chunk required")
        for m in self.models:
            if (
                m.input_dim != self.engine.feature_dim
                or m.hidden_dim != self.engine.hidden_dim
                or m.output_dim != self.code_config.buckets_per_chunk
            ):
                raise ValueError(f"chunk {m.chunk}: model dims disagree with config")


@dataclass
class TrainResult:
    ensemble: ChunkEnsemble
    loss_curves: list[list[float]]  # per chunk, one mean loss per epoch
    skipped_unlabeled: int
    chunk_seconds: list[float]


def _block_csr(
    values: np.ndarray, cols: np.ndarray, offsets: np.ndarray, width: int, saturate: bool
) -> sp.csr_matrix:
    """One CSR row per block row; entries sharing a column add up, capped at 1 if ``saturate``.

    The merge is a query's, over ``row * width + column`` keys (int64 below 2**31 rows).
    """
    row_keys = np.arange(offsets.size, dtype=np.int64) * width  # each row's first key
    keys, data = merge_slots(np.repeat(row_keys[:-1], np.diff(offsets)) + cols, values, saturate)
    indptr = np.searchsorted(keys, row_keys)
    return sp.csr_matrix((data, keys % width, indptr), shape=(offsets.size - 1, width))


def _chunk_matrix(
    block: DocBlock, chunk_seed: int, feature_dim: int, mode: FeatureMode
) -> sp.csr_matrix:
    """Hash every row of the block for one chunk into a CSR matrix of inputs."""
    cols = hash_token_ids(block.token_ids, chunk_seed, feature_dim)
    vals = block.token_counts.astype(np.float64)
    # colliding tokens add up; binary mode saturates the slot at 1
    return _block_csr(vals, cols, block.token_offsets, feature_dim, mode == "binary")


def _target_matrix(block: DocBlock, cb: LabelCodebook, chunk: int) -> sp.csr_matrix:
    """Few-hot OR targets for one chunk: row r is 1 on every bucket of row r's labels."""
    if block.labels.min() < 0 or block.labels.max() >= cb.config.num_labels:
        raise ValueError("label id out of range")
    cols = cb.codes[block.labels, chunk]
    # labels sharing a bucket make one hot entry, not a count
    b = cb.config.buckets_per_chunk
    return _block_csr(np.ones(cols.size), cols, block.label_offsets, b, saturate=True)


def train_chunk(
    chunk: int,
    block: DocBlock,
    cb: LabelCodebook,
    engine: EngineConfig,
    cfg: TrainConfig,
) -> tuple[ChunkModel, list[float]]:
    """Train one chunk's model on every row of ``block``; touches no other chunk's state.

    Deterministic given (block, configs, chunk): initialization, shuffle
    order, and batch accumulation order are all seed-derived and sequential.
    """
    n = block.label_offsets.size - 1
    if n == 0 or not np.all(np.diff(block.label_offsets)):
        raise ValueError("training needs at least one document, and labels on every one")

    b = cb.config.buckets_per_chunk
    x_all = _chunk_matrix(
        block, engine.chunk_feature_seed(chunk), engine.feature_dim, engine.feature_mode
    )
    y_all = _target_matrix(block, cb, chunk)

    model = init_model(
        engine.feature_dim, engine.hidden_dim, b, engine.chunk_init_seed(chunk), chunk
    )
    state = zero_adam_state(model)

    curve = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = np.random.Generator(
            np.random.PCG64(derive_seed(cfg.shuffle_seed, chunk, epoch))
        ).permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = _batch_step(model, x_all[batch], y_all[batch].toarray())
            apply_update(model, grads, state, cfg.lr)
            epoch_loss += loss * batch.size
        mean_loss = epoch_loss / n
        curve.append(mean_loss)
        logger.info(
            "chunk %d epoch %d loss %.6f (%.2fs)",
            chunk,
            epoch,
            mean_loss,
            time.perf_counter() - t0,
        )
    return quantize_to_f32(model), curve


# OpenBLAS's thread-count setter as NumPy 2 and NumPy 1 wheels, and 32-bit builds, name it
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with NumPy's wheel, if this process has it loaded."""
    numpy_dir = Path(np.__file__).resolve().parent
    bundled = [
        *numpy_dir.parent.glob("numpy.libs/*openblas*"),
        *numpy_dir.glob(".dylibs/*openblas*"),
    ]
    for path in bundled:
        try:
            return ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
    return None


def _one_blas_thread() -> bool:
    """Pool initializer: run NumPy's OpenBLAS on one thread in this worker.

    Training runs in parallel across chunks, one process each.  A BLAS thread
    pool inside every worker oversubscribes the cores: its idle threads spin
    while the other workers wait for a core.  With two workers on a 2-vCPU VM
    a chunk took three times as long, by a factor that changed from run to
    run.  The thread count does not change the learned bytes.  Returns False,
    and changes nothing, where NumPy uses another BLAS or none is found.
    """
    lib = _numpy_openblas()
    for name in _OPENBLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter(1)
            return True
    return False


def _train_chunk_task(
    payload: tuple[int, DocBlock, CodeConfig, EngineConfig, TrainConfig],
) -> tuple[ChunkModel, list[float], float]:
    """Process-pool entry point; rebuilds the codebook from its config."""
    chunk, block, code_config, engine, cfg = payload
    t0 = time.perf_counter()
    model, curve = train_chunk(chunk, block, build_codebook(code_config), engine, cfg)
    return model, curve, time.perf_counter() - t0


def train_all(
    documents: DocBlock | list[Document],
    cb: LabelCodebook,
    engine: EngineConfig,
    cfg: TrainConfig,
) -> TrainResult:
    """Train all chunks with zero shared mutable state.

    Rows without labels cannot produce a target, so they are dropped and
    counted.  ``cfg.workers`` chunks run concurrently in separate processes;
    results are bit-identical to the serial run because every chunk executes
    the same sequential code path either way.
    """
    if not isinstance(documents, DocBlock):
        documents = DocBlock.from_documents(documents)
    block = documents.labeled()
    skipped = documents.label_offsets.size - block.label_offsets.size
    if skipped:
        logger.warning("skipped %d unlabeled documents", skipped)
    if block.labels.size == 0:
        raise ValueError("no labeled documents to train on")

    k = cb.config.num_chunks
    payloads = [(chunk, block, cb.config, engine, cfg) for chunk in range(k)]
    if cfg.workers == 1 or k == 1:
        results = [_train_chunk_task(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(
            max_workers=min(cfg.workers, k), initializer=_one_blas_thread
        ) as pool:
            results = list(pool.map(_train_chunk_task, payloads))

    ensemble = ChunkEnsemble(
        code_config=cb.config, engine=engine, models=[r[0] for r in results]
    )
    return TrainResult(
        ensemble=ensemble,
        loss_curves=[r[1] for r in results],
        skipped_unlabeled=skipped,
        chunk_seconds=[r[2] for r in results],
    )
