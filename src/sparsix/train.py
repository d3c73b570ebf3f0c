"""OR-target construction and shared-nothing training of the chunk models.

Each chunk trains independently: its targets come from its own codebook
column, its inputs from its own feature-hash seed, and its shuffle order
from its own derived seed.  A chunk's trained parameters are a pure function
of (block, codebook, engine config, train config, chunk), so any number of
worker processes yields bit-identical models.  Parallelism is across chunks
only; within a chunk, batches are processed sequentially in a fixed order.
Every chunk trains in a worker process at one BLAS thread, in a run with one
worker too, so the caller's BLAS thread count is never touched.

A worker gets its whole job once, when :func:`_start_worker` starts it: the
labeled corpus as one :class:`features.DocBlock` of flat arrays, the codebook
and both configs.  A chunk's payload is its chunk id alone, and the chunk
builds its own CSR target matrix from its codebook column.  A pool forked from
the caller shares the caller's pages; a spawned pool unpickles one copy of the
job per worker.  A chunk hashes the block's token ids in one call, and
:func:`features.merge_rows`, the merge a query's hashing uses, turns the
block's rows into its CSR input matrix and its labels' buckets into its CSR
target matrix; this module keys no rows itself.  Each epoch permutes both
once, and each batch slices them and takes one :func:`model.batch_step`, the
only loss-and-gradient code in the package, in float32 (``model.PARAM_DTYPE``).

A chunk trains only the rows of W1 its inputs reach.  A row that no document
hashes into gets an exactly zero gradient at every step, so Adam would leave
it at its initial bits; those rows keep them, and the learned bytes are the
same as if every row trained.

Targets use positive-only association: a bucket is trained toward 1 whenever
any label pooled into it is relevant to the document, i.e. the few-hot target
is the OR of the document's label codes for that chunk.
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp

# no chunk builds a codebook; the benchmark's chunk tracer still wraps build_codebook
from .codes import CodeConfig, LabelCodebook, build_codebook, codebook_bytes  # noqa: F401
from .features import DocBlock, Document, hash_token_ids, merge_rows
from .hashing import derive_seed
from .model import PARAM_DTYPE, ChunkModel, apply_update, check_fits, init_model, model_bytes
from .model import one_blas_thread, step_bytes, zero_adam_state
# the engine's configs and ensemble live in model, which serving imports without SciPy
from .model import ChunkEnsemble, EngineConfig, TrainConfig
# train_chunk calls the step through this module's name, where a tracer can wrap it
from .model import batch_step as _batch_step

logger = logging.getLogger(__name__)


@dataclass
class TrainResult:
    ensemble: ChunkEnsemble
    loss_curves: list[list[float]]  # per chunk, one mean loss per epoch
    skipped_unlabeled: int
    chunk_seconds: list[float]


def _chunk_matrix(
    block: DocBlock, chunk_seed: int, feature_dim: int, mode: str
) -> sp.csr_matrix:
    """Hash every row of the block for one chunk into a CSR matrix of inputs."""
    cols = hash_token_ids(block.token_ids, chunk_seed, feature_dim)
    vals = block.token_counts.astype(np.float64)
    # colliding tokens add up; binary mode saturates the slot at 1
    indptr, cols, vals = merge_rows(cols, vals, block.token_offsets, feature_dim, mode == "binary")
    return sp.csr_matrix((vals, cols, indptr), shape=(indptr.size - 1, feature_dim))


def _target_matrix(block: DocBlock, cb: LabelCodebook, chunk: int) -> sp.csr_matrix:
    """Few-hot OR targets for one chunk: row r is 1 on every bucket of row r's labels."""
    if block.labels.min() < 0 or block.labels.max() >= cb.config.num_labels:
        raise ValueError("label id out of range")
    cols = cb.codes[block.labels, chunk]
    # labels sharing a bucket make one hot entry, not a count
    ones, b = np.ones(cols.size, dtype=PARAM_DTYPE), cb.config.buckets_per_chunk
    indptr, cols, ones = merge_rows(cols, ones, block.label_offsets, b, saturate=True)
    return sp.csr_matrix((ones, cols, indptr), shape=(indptr.size - 1, b))


def _live_columns(x: sp.csr_matrix) -> tuple[np.ndarray, sp.csr_matrix]:
    """The sorted columns some row of ``x`` uses, and ``x`` over those columns alone.

    Column ``live[j]`` becomes column ``j``; the renumbering keeps each row's
    columns, and so its entries, in their order.
    """
    reached = np.zeros(x.shape[1], dtype=bool)
    reached[x.indices] = True
    rank = np.cumsum(reached)
    rank -= 1
    live = np.flatnonzero(reached)
    return live, sp.csr_matrix((x.data, rank[x.indices], x.indptr), shape=(x.shape[0], live.size))


def _epoch_batches(
    x: sp.csr_matrix, y: sp.csr_matrix, order: np.ndarray, size: int
) -> Iterator[tuple[sp.csr_matrix, np.ndarray]]:
    """``x``'s rows and ``y``'s dense rows in ``order``, ``size`` rows a batch.

    Both are permuted once, so each batch is a contiguous slice; the copies go
    when the epoch's last batch is taken.
    """
    x, y = x[order], y[order]
    for start in range(0, order.size, size):
        yield x[start : start + size], y[start : start + size].toarray()


def train_chunk(
    chunk: int,
    block: DocBlock,
    cb: LabelCodebook,
    engine: EngineConfig,
    cfg: TrainConfig,
) -> tuple[ChunkModel, list[float]]:
    """Train one chunk's model on every row of ``block``; touches no other chunk's state.

    The targets are the chunk's (rows, B) :func:`_target_matrix` of ``cb``.
    Deterministic given (block, codebook, configs, chunk): initialization,
    shuffle order, and batch accumulation order are all seed-derived and sequential.
    Inputs are cast to ``PARAM_DTYPE`` once, targets are built in it, the
    model is initialised in it, and it comes back in it, the form a loaded
    blob takes.

    Only the rows of W1 that some input reaches train.  Every other row gets
    an exactly zero gradient at every step, so Adam would leave it at its
    initial bits: the chunk trains a model of the live rows, on inputs whose
    columns are renumbered to match, and writes the trained rows back into the
    full initial W1.  The learned bytes are those of training all of W1.
    """
    n = block.label_offsets.size - 1
    if n == 0 or not np.all(np.diff(block.label_offsets)):
        raise ValueError("training needs at least one document, and labels on every one")

    live, x_all = _live_columns(
        _chunk_matrix(
            block, engine.chunk_feature_seed(chunk), engine.feature_dim, engine.feature_mode
        ).astype(PARAM_DTYPE)
    )
    y_all = _target_matrix(block, cb, chunk)

    full = init_model(
        engine.feature_dim,
        engine.hidden_dim,
        y_all.shape[1],
        engine.chunk_init_seed(chunk),
        chunk,
        dtype=PARAM_DTYPE,
    )
    # b1, W2 and b2 are shared, so they train in place in the full model
    model = replace(full, W1=full.W1[live])
    state = zero_adam_state(model)

    curve = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = np.random.Generator(
            np.random.PCG64(derive_seed(cfg.shuffle_seed, chunk, epoch))
        ).permutation(n)
        epoch_loss = 0.0
        for x_batch, y_batch in _epoch_batches(x_all, y_all, order, cfg.batch_size):
            loss, grads = _batch_step(model, x_batch, y_batch)
            apply_update(model, grads, state, cfg.lr)
            del grads  # else this gradient outlives the next step's
            epoch_loss += loss * x_batch.shape[0]
        mean_loss = epoch_loss / n
        curve.append(mean_loss)
        logger.info(
            "chunk %d epoch %d loss %.6f (%.2fs)",
            chunk,
            epoch,
            mean_loss,
            time.perf_counter() - t0,
        )
    full.W1[live] = model.W1
    return full, curve


# the block, codebook and configs this worker process's chunks train with
_job: tuple[DocBlock, LabelCodebook, EngineConfig, TrainConfig] | None = None


def _start_worker(
    block: DocBlock, cb: LabelCodebook, engine: EngineConfig, cfg: TrainConfig
) -> None:
    """Pool initializer: keep the job for this process's chunks, and run BLAS on one thread.

    Training runs in parallel across chunks, one process each.  A BLAS thread
    pool inside every worker oversubscribes the cores: its idle threads spin
    while the other workers wait for a core.  With two workers on a 2-vCPU VM
    a chunk took three times as long, by a factor that changed from run to
    run.  A float32 product summed across threads also has other bits, at
    shapes as small as a batch of 1000 rows, H 512 and B 2048, so every chunk
    trains at one thread, whatever the number of workers.
    """
    global _job
    _job = (block, cb, engine, cfg)
    one_blas_thread()


def _train_chunk_task(payload: tuple[int]) -> tuple[ChunkModel, list[float], float]:
    """Process-pool entry point: :func:`train_chunk` on the payload's chunk and this
    process's job, and its seconds."""
    t0 = time.perf_counter()
    (chunk,) = payload
    model, curve = train_chunk(chunk, *_job)
    return model, curve, time.perf_counter() - t0


def _training_bytes(
    block: DocBlock, code: CodeConfig, engine: EngineConfig, cfg: TrainConfig
) -> int:
    """Estimated peak bytes of :func:`train_all` and of saving its ensemble, counted
    before either allocates any.

    ``min(workers, k)`` chunks run at once.  Each holds its training steps'
    state (:func:`model.step_bytes`, whose live rows are at most the block's
    distinct token ids) and, throughout, a copy of the block and of the
    codebook (:func:`codes.codebook_bytes`), its targets (a value and column
    per label, an offset per row), its CSR inputs, built in float64 and then
    cast, their renumbered columns, and each epoch's permuted copies of its
    inputs and targets.  Beside them are the caller's codebook and the
    ensemble's ``k`` models (:func:`model.model_bytes`); the caller builds no
    targets.  Once the chunks have ended, :func:`manifest.save_ensemble` builds
    one blob at a time in their place, a model's bytes (:func:`model.save_model`),
    which is less than any running chunk's share.

    Under ``spawn`` or ``forkserver`` each worker holds the block and codebook
    it unpickled when it started, the copies counted here.  A ``fork`` worker
    shares the caller's pages, which no chunk writes, so there the estimate
    counts one block and codebook per running chunk more than is held.
    """
    k, b = code.num_chunks, code.buckets_per_chunk
    item = PARAM_DTYPE.itemsize
    n = block.label_offsets.size
    nonzeros = block.token_ids.size + block.labels.size
    rows = min(cfg.batch_size, n - 1)
    # per non-zero: float64 value, int64 key and column, cast value and index
    csr = (32 + item) * nonzeros
    # a mask and an int64 rank per input index, and an int64 and a cast new column per token
    renumbered = 9 * engine.feature_dim + 12 * block.token_ids.size
    # per non-zero a value and an index, per row an offset and the permutation's scratch
    epoch = (item + 8) * nonzeros + 32 * n
    held = sum(getattr(block, a.name).nbytes for a in fields(block)) + csr + renumbered + epoch
    targets = (item + 8) * block.labels.size + 8 * n
    running = step_bytes(engine, b, rows, block.distinct_tokens) + held + targets
    codebook = codebook_bytes(code)
    return min(cfg.workers, k) * (running + codebook) + k * model_bytes(engine, b) + codebook


def check_memory(block: DocBlock, code: CodeConfig, engine: EngineConfig, cfg: TrainConfig) -> None:
    """Raise ``ValueError`` if training on ``block`` would need more memory than there is.

    :func:`train_all` checks before it allocates; a caller that builds the
    codebook first checks before that.
    """
    check_fits(
        _training_bytes(block, code, engine, cfg),
        "training",
        f"; lower hidden_dim ({engine.hidden_dim}), feature_dim ({engine.feature_dim}), "
        f"workers ({cfg.workers}), buckets_per_chunk ({code.buckets_per_chunk}) or "
        f"num_chunks ({code.num_chunks}) for num_labels ({code.num_labels})",
    )


def train_all(
    documents: DocBlock | list[Document],
    cb: LabelCodebook,
    engine: EngineConfig,
    cfg: TrainConfig,
) -> TrainResult:
    """Train all chunks with zero shared mutable state.

    Rows without labels cannot produce a target, so they are dropped and
    counted.  ``min(cfg.workers, K)`` chunks run concurrently in worker
    processes, and a run with one worker starts a pool of one; results are
    bit-identical at any worker count because every chunk executes the same
    sequential code path at one BLAS thread.  The calling process trains
    nothing, so its BLAS thread count is never touched.  Under the ``spawn`` and ``forkserver``
    start methods a calling script needs an ``if __name__ == "__main__":``
    guard, and the workers' per-epoch log lines do not reach the caller's
    handlers.  A daemonic process cannot train, since it cannot start workers.
    A run whose estimated bytes exceed the machine's memory fails before it
    allocates any.
    """
    if not isinstance(documents, DocBlock):
        documents = DocBlock.from_documents(documents)
    block = documents.labeled()
    skipped = documents.label_offsets.size - block.label_offsets.size
    if skipped:
        logger.warning("skipped %d unlabeled documents", skipped)
    if block.labels.size == 0:
        raise ValueError("no labeled documents to train on")

    check_memory(block, cb.config, engine, cfg)
    k = cb.config.num_chunks
    job = (block, cb, engine, cfg)
    with ProcessPoolExecutor(min(cfg.workers, k), initializer=_start_worker, initargs=job) as pool:
        results = list(pool.map(_train_chunk_task, [(c,) for c in range(k)]))
    models, curves, seconds = (list(column) for column in zip(*results))
    return TrainResult(ChunkEnsemble(cb.config, engine, models), curves, skipped, seconds)
