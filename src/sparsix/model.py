"""Per-chunk classifier: one-hidden-layer network with sigmoid outputs.

Each chunk trains its own network mapping hashed features to a probability
per bucket: ``p = sigmoid(W2 relu(x W1 + b1) + b2)``, against few-hot bucket
targets under mean binary cross entropy.  :func:`batch_step` is the only
code that computes the loss and its exact, analytic gradients, over a CSR
batch of hashed documents.  :func:`grad_check` takes such a batch and its
dense 0/1 targets, as training builds them, and checks that same function
against central finite differences.  :func:`forward`
embeds a block of queries, each row with the bits it has alone.
:func:`apply_update` takes one Adam step
with the standard constants below; the learning rate is the one
optimizer setting a run chooses.

Both forward passes share one :func:`sigmoid`, written in NumPy alone, so
serving imports no SciPy; ``scipy.sparse`` appears here only in annotations.
The engine's configs (:class:`EngineConfig`, :class:`TrainConfig`), the
trained :class:`ChunkEnsemble`, the bytes a model and a training step take
(:func:`model_bytes`, :func:`step_bytes`) and :func:`check_fits`, where both
the training and the loading estimate meet the memory limit, live here too,
for the same reason, as does :func:`openblas_threads`, which training's
workers and every command call to run at one thread, so that no product's
bits follow the host's cores.

A trained or loaded model holds ``PARAM_DTYPE``, float32, the blobs' precision,
and trains in it; only :func:`bce_loss` reduces, and :func:`forward` computes,
in float64.  :func:`init_model` draws in float64, the precision
:func:`grad_check` checks in, and casts to the dtype asked for.  W1 is held
(F, H), one row per input index, so a batch's sparse inputs read and write
whole rows, and blobs store it in the same order.  A row no input reaches has
a zero gradient, so training hands these functions a model of the live rows
only.  :func:`save_model` returns a blob's bytes and :func:`load_model` parses
those bytes in place: W1 is a view of them, and b1, W2 and b2 are copied once
into the model (the engine loaders hand it a read-only map of the blob file,
so a loaded W1 is read-only).  A blob is its header plus exactly the payload
the header claims: fewer or more bytes are an error, which
:func:`blob_header` raises before any array is made.
"""
from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .codes import CodeConfig
from .features import FEATURE_MODES, HashedFeatures
from .hashing import SEED_RANGE, check_ints, derive_seed

if TYPE_CHECKING:
    import ctypes

    import scipy.sparse as sp

LOSS_CLAMP_EPS = 1e-12
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam updates each parameter one block of whole rows at a time, at most this
# many bytes, so that its fourteen passes over six arrays (768 KiB) stay in a
# core's cache.  At F=8192, H=64 on a 2-vCPU Xeon, whole-array passes made a
# float64 step about a fifth slower; a float32 block holds twice the rows.
ADAM_BLOCK_BYTES = 128 * 1024
# init_model draws W1 this many hidden units at a time, an (8, F) float64 block:
# at F=100000, H=512, fewer units made the transposed writes up to 2.6x slower
INIT_BLOCK_UNITS = 8
# grad_check's central differences move a coordinate this far either way
GRAD_CHECK_STEP = 1e-4


class NonFiniteGradientError(RuntimeError):
    """Raised when a gradient goes NaN/inf; usually a runaway learning rate."""


@dataclass
class ChunkModel:
    """Parameters of one chunk's network. Mutable during training, then frozen."""

    chunk: int
    init_seed: int
    W1: np.ndarray = field(repr=False)  # (F, H)
    b1: np.ndarray = field(repr=False)  # (H,)
    W2: np.ndarray = field(repr=False)  # (B, H)
    b2: np.ndarray = field(repr=False)  # (B,)

    @property
    def input_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.W2.shape[0]

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.W1, self.b1, self.W2, self.b2)


@dataclass
class Gradients:
    """Loss gradients, same shapes as the model parameters."""

    W1: np.ndarray = field(repr=False)
    b1: np.ndarray = field(repr=False)
    W2: np.ndarray = field(repr=False)
    b2: np.ndarray = field(repr=False)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.W1, self.b1, self.W2, self.b2)


@dataclass
class AdamState:
    """First/second moment accumulators, the step counter, and scratch space.

    ``scratch`` holds two buffers per parameter, each one row block of it in its
    dtype (see ``ADAM_BLOCK_BYTES``), which :func:`apply_update` overwrites on
    every step so that its update allocates nothing.
    """

    step: int
    m: Gradients
    v: Gradients
    scratch: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)


def init_model(
    input_dim: int,
    hidden_dim: int,
    output_dim: int,
    init_seed: int,
    chunk: int = 0,
    dtype: type = np.float64,
) -> ChunkModel:
    """Glorot-uniform weights, zero biases, deterministic per seed, in ``dtype``.

    Each layer draws float64 from ``uniform(-a, a)`` with
    ``a = sqrt(6/(fan_in+fan_out))``, then casts to ``dtype``.  W1 is drawn
    (H, F), before W2, ``INIT_BLOCK_UNITS`` hidden units at a time, and stored
    transposed; PCG64 gives consecutive blocks the values of one (H, F) draw,
    so the values depend neither on the blocks nor on the storage layout, and
    no whole float64 W1 is held.  Training takes its float32 model here and
    trains only the rows of W1 its inputs reach; every other row keeps these
    initial bits.
    """
    if min(input_dim, hidden_dim, output_dim) < 1:
        raise ValueError("all model dimensions must be >= 1")
    rng = np.random.Generator(np.random.PCG64(init_seed))
    a1 = np.sqrt(6.0 / (input_dim + hidden_dim))
    a2 = np.sqrt(6.0 / (hidden_dim + output_dim))
    W1 = np.empty((input_dim, hidden_dim), dtype=dtype)
    for start in range(0, hidden_dim, INIT_BLOCK_UNITS):
        units = min(INIT_BLOCK_UNITS, hidden_dim - start)
        W1[:, start : start + units] = rng.uniform(-a1, a1, size=(units, input_dim)).T
    return ChunkModel(
        chunk=chunk,
        init_seed=init_seed,
        W1=W1,
        b1=np.zeros(hidden_dim, dtype=dtype),
        W2=rng.uniform(-a2, a2, size=(output_dim, hidden_dim)).astype(dtype, copy=False),
        b2=np.zeros(output_dim, dtype=dtype),
    )


def zero_adam_state(model: ChunkModel) -> AdamState:
    params = model.params()
    return AdamState(
        step=0,
        m=Gradients(*(np.zeros_like(p) for p in params)),
        v=Gradients(*(np.zeros_like(p) for p in params)),
        scratch=tuple((_row_block(p), _row_block(p)) for p in params),
    )


def _row_block(p: np.ndarray) -> np.ndarray:
    """Uninitialised leading rows of ``p``: as many as fit ADAM_BLOCK_BYTES, at least one."""
    rows = max(1, ADAM_BLOCK_BYTES // (p.itemsize * math.prod(p.shape[1:])))
    return np.empty((max(1, min(rows, p.shape[0])), *p.shape[1:]), dtype=p.dtype)


@np.errstate(over="ignore")
def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-z))`` elementwise, in ``z``'s dtype, into ``out`` or one new array.

    ``out`` may be ``z`` itself.  Where ``exp(-z)`` overflows (z below about
    -709 in float64, -88 in float32) it is inf and the result exactly 0,
    without a warning.
    """
    t = np.negative(z, out=out)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def forward(
    model: ChunkModel, x: HashedFeatures, out: np.ndarray | None = None
) -> np.ndarray:
    """Bucket probabilities, ``(rows, B)``, one row per row of ``x``, unclamped, in float64.

    Row r is ``sigmoid(W2 @ relu(x_r W1 + b1) + b2)``, by that expression's
    operations in its order, with the bits of computing it alone.  Each row
    takes its two products as one BLAS call each, as a single row does, and
    its biases and ReLU into them; the sigmoid then runs over the whole block,
    elementwise.  One product ``h @ W2.T`` for the block would make a row's
    bits depend on its block.  The result is written into ``out``, a
    C-contiguous float64 ``(rows, B)`` array, if given.
    """
    if x.dim != model.input_dim:
        raise ValueError(f"input dim {x.dim} != model input dim {model.input_dim}")
    bounds = [0, x.indexes.size] if x.offsets is None else x.offsets.tolist()
    rows = len(bounds) - 1
    # only the touched rows of W1 are read, in one gather; x's float64 values widen them
    touched = model.W1[x.indexes]
    w2 = model.W2.astype(np.float64, copy=False)  # widened once a call, not once a row
    z = np.empty((rows, model.output_dim)) if out is None else out
    for r in range(rows):
        a, b = bounds[r], bounds[r + 1]
        h = x.values[a:b] @ touched[a:b]
        h += model.b1
        np.maximum(h, 0.0, out=h)
        zr = np.matmul(w2, h, out=z[r])
        zr += model.b2
    return sigmoid(z, out=z)


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross entropy over every document and bucket.

    Probabilities are clamped to ``[eps, 1-eps]`` here and only here, in float64
    whatever ``p``'s dtype (in float32, ``1 - eps`` is 1.0); raw probabilities
    flow to inference untouched.  Averaging over the bucket count keeps
    learning rates comparable across bucket-count sweeps.

    ``y`` must hold only 0 and 1, as training's targets do.  Each term is
    then ``log1p(-pc)`` where y = 0 and ``log(pc)`` where y = 1, so only the
    hot entries pay for a ``log``; the terms, and so the mean, have the same
    bits as ``y * log(pc) + (1 - y) * log1p(-pc)``.
    """
    pc = np.clip(p, LOSS_CLAMP_EPS, 1.0 - LOSS_CLAMP_EPS, dtype=np.float64)
    hot = y == 1.0
    hot_log = np.log(pc[hot])
    terms = np.log1p(np.negative(pc, out=pc), out=pc)
    terms[hot] = hot_log
    return float(-np.mean(terms))


def _batch_forward(
    model: ChunkModel, x_batch: sp.csr_matrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-activations, hidden activations and probabilities, one row per document."""
    h_pre = x_batch @ model.W1 + model.b1
    h = np.maximum(h_pre, 0.0)
    return h_pre, h, sigmoid(h @ model.W2.T + model.b2)


def batch_step(
    model: ChunkModel, x_batch: sp.csr_matrix, y_batch: np.ndarray
) -> tuple[float, Gradients]:
    """Mean-over-batch loss and its exact gradients, accumulated in a fixed order.

    ``y_batch`` is the dense (rows, B) 0/1 target matrix; all but the loss runs
    in the model's dtype.  ReLU's subgradient at zero is taken as zero.  Rows
    of W1 for input indexes absent from every row of the batch get exactly zero
    gradient.
    """
    n = x_batch.shape[0]
    h_pre, h, p = _batch_forward(model, x_batch)
    loss = bce_loss(p, y_batch)
    dz = (p - y_batch) / (model.output_dim * n)
    g_W2 = dz.T @ h
    g_b2 = dz.sum(axis=0)
    dh = dz @ model.W2
    dh[h_pre <= 0.0] = 0.0
    g_W1 = x_batch.T @ dh
    g_b1 = dh.sum(axis=0)
    return loss, Gradients(W1=g_W1, b1=g_b1, W2=g_W2, b2=g_b2)


def apply_update(
    model: ChunkModel, grads: Gradients, state: AdamState, lr: float
) -> tuple[ChunkModel, AdamState]:
    """One Adam step with learning rate ``lr``, in place; returns the same objects.

    Every array operation writes into ``state``'s buffers, one row block at a
    time.  The operations and their order are those of the textbook expression
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the result is the same
    to the bit.  Before any parameter changes, every gradient is checked finite
    by its largest and smallest entry, so the check allocates no mask.
    """
    # a NaN is both extremes and an infinity one of them, so two reductions need no mask
    extremes = ((g.max(), g.min()) for g in grads.arrays() if g.size)
    if not all(np.isfinite(hi) and np.isfinite(lo) for hi, lo in extremes):
        raise NonFiniteGradientError(
            f"chunk {model.chunk}: non-finite gradient at step {state.step + 1}; "
            "reduce the learning rate"
        )
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    arrays = zip(model.params(), grads.arrays(), state.m.arrays(), state.v.arrays())
    for whole, (num_block, den_block) in zip(arrays, state.scratch):
        rows = num_block.shape[0]
        for start in range(0, whole[0].shape[0], rows):
            # slicing leading rows gives views, so the updates land in place
            p, g, m, v = (a[start : start + rows] for a in whole)
            num, den = num_block[: p.shape[0]], den_block[: p.shape[0]]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=num)
            m += num
            v *= ADAM_BETA2
            np.square(g, out=num)
            num *= 1.0 - ADAM_BETA2
            v += num
            np.divide(m, bc1, out=num)
            num *= lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            p -= num
    return model, state


def grad_check(
    model: ChunkModel,
    x_batch: sp.csr_matrix,
    y_batch: np.ndarray,
    num_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of :func:`batch_step`'s gradients vs central differences.

    ``x_batch`` is a CSR batch of hashed documents and ``y_batch`` its dense
    (rows, B) 0/1 targets; a single document is a one-row batch.  Samples
    ``num_coords`` parameter coordinates (all of them if the model is
    smaller), each moved by ``GRAD_CHECK_STEP`` either way.  Coordinates where
    both sides are exactly zero are skipped.
    """
    _, grads = batch_step(model, x_batch, y_batch)
    params = model.params()
    analytic = grads.arrays()
    sizes = [p.size for p in params]
    total = sum(sizes)
    rng = np.random.Generator(np.random.PCG64(seed))
    take = min(num_coords, total)
    coords = rng.choice(total, size=take, replace=False)

    worst = 0.0
    for flat in coords:
        pi, offset = _locate(sizes, int(flat))
        p = params[pi].reshape(-1)
        saved = p[offset]
        p[offset] = saved + GRAD_CHECK_STEP
        loss_plus = batch_step(model, x_batch, y_batch)[0]
        p[offset] = saved - GRAD_CHECK_STEP
        loss_minus = batch_step(model, x_batch, y_batch)[0]
        p[offset] = saved
        fd = (loss_plus - loss_minus) / (2.0 * GRAD_CHECK_STEP)
        an = analytic[pi].reshape(-1)[offset]
        denom = max(abs(fd), abs(an))
        if denom == 0.0:
            continue
        worst = max(worst, abs(fd - an) / denom)
    return worst


def _locate(sizes: list[int], flat: int) -> tuple[int, int]:
    for i, size in enumerate(sizes):
        if flat < size:
            return i, flat
        flat -= size
    raise IndexError(flat)


# ---------------------------------------------------------------------------
# Persistence: per-chunk binary blob
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IIIIQ")  # chunk, F, H, B, init_seed
# Every trained or loaded model holds its parameters in the blobs' precision
PARAM_DTYPE = np.dtype(np.float32)
_BLOB_DTYPE = PARAM_DTYPE.newbyteorder("<")


def num_params(f: int, h: int, b: int) -> int:
    """Parameters of one chunk's model, F·H + H + B·H + B; Python ints never overflow."""
    return f * h + h + b * h + b


def save_model(model: ChunkModel) -> bytearray:
    """Header (chunk, F, H, B, init_seed), then W1, b1, W2, b2 as little-endian ``PARAM_DTYPE``.

    W1 is written (F, H), the order the model holds it in.  Each array is
    copied once, straight into the blob, so building it holds one blob's bytes.
    """
    f, h, b = model.input_dim, model.hidden_dim, model.output_dim
    blob = bytearray(_HEADER.size + _BLOB_DTYPE.itemsize * num_params(f, h, b))
    _HEADER.pack_into(blob, 0, model.chunk, f, h, b, model.init_seed)
    offset = _HEADER.size
    for p in model.params():
        stored = np.frombuffer(blob, _BLOB_DTYPE, p.size, offset).reshape(p.shape)
        stored[...] = p
        offset += stored.nbytes
    return blob


def blob_header(data: bytes) -> tuple[int, int, int, int, int]:
    """A blob's header, (chunk, F, H, B, init_seed), once its size is checked.

    A blob is its header plus exactly the payload the header claims; fewer or
    more bytes raise ``ValueError``.
    """
    if len(data) < _HEADER.size:
        raise ValueError("truncated model blob header")
    header = _HEADER.unpack_from(data)
    _, f, h, b, _ = header
    claimed, follow = _BLOB_DTYPE.itemsize * num_params(f, h, b), len(data) - _HEADER.size
    if claimed != follow:
        raise ValueError(f"model blob header claims {claimed} payload bytes, {follow} follow")
    return header


def load_model(data: bytes) -> ChunkModel:
    """Parse a blob written by :func:`save_model`; parameters come back ``PARAM_DTYPE``.

    The blob's size is checked by :func:`blob_header`.  W1 is a C-contiguous
    (F, H) view of ``data``, read-only where ``data`` is, such as a read-only
    map of the blob.  b1, W2 and b2 are read in place and copied once, into
    the model's own writable arrays.
    """
    chunk, f, h, b, init_seed = blob_header(data)
    arrays, offset = [], _HEADER.size
    for shape in [(f, h), (h,), (b, h), (b,)]:
        stored = np.frombuffer(data, _BLOB_DTYPE, math.prod(shape), offset).reshape(shape)
        offset += stored.nbytes
        # W1 stays a view, copied only to swap its bytes on a big-endian host
        arrays.append(stored.astype(PARAM_DTYPE, copy=bool(arrays)))
    return ChunkModel(chunk, init_seed, *arrays)


# ---------------------------------------------------------------------------
# The engine: its configs, the trained ensemble, and the memory it must fit in
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    """Architecture knobs shared by every chunk model."""

    feature_dim: int
    hidden_dim: int
    feature_mode: str = "counts"
    feature_seed: int = 0
    init_seed: int = 0

    def __post_init__(self) -> None:
        check_ints(
            self,
            feature_dim=(1, 2**32 - 1),  # token hashes are 32-bit: no index reaches past 2**32 - 1
            hidden_dim=(1, None),
            feature_seed=SEED_RANGE,
            init_seed=SEED_RANGE,
        )
        if self.feature_mode not in FEATURE_MODES:
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
        check_ints(
            self, epochs=(1, None), batch_size=(1, None), shuffle_seed=SEED_RANGE, workers=(1, None)
        )
        if isinstance(self.lr, bool) or not (math.isfinite(self.lr) and self.lr > 0):
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
            dims = (m.input_dim, m.hidden_dim, m.output_dim)
            check_dims(m.chunk, dims, self.engine, self.code_config.buckets_per_chunk)


def check_dims(
    chunk: int, dims: tuple[int, int, int], engine: EngineConfig, buckets: int
) -> None:
    """Raise ``ValueError`` unless a chunk model's (F, H, B) are ``engine``'s and ``buckets``."""
    if dims != (engine.feature_dim, engine.hidden_dim, buckets):
        raise ValueError(f"chunk {chunk}: model dims disagree with config")


def model_bytes(engine: EngineConfig, buckets: int) -> int:
    """Bytes of one ``PARAM_DTYPE`` model of ``engine`` with ``buckets`` outputs."""
    return PARAM_DTYPE.itemsize * num_params(engine.feature_dim, engine.hidden_dim, buckets)


def forward_bytes(engine: EngineConfig, buckets: int, rows: int) -> int:
    """Peak bytes :func:`forward` adds beside its model for a block of ``rows`` rows:
    ``W2 @ h`` multiplies a float64 copy of the whole float32 W2, next to one
    row's float64 ``h`` at a time and the block's float64 ``z``, 8·B bytes a row."""
    h = engine.hidden_dim
    return 8 * (buckets * h + h + rows * buckets)


def step_bytes(engine: EngineConfig, buckets: int, rows: int, live_rows: int) -> int:
    """Peak bytes of one chunk's training steps on batches of at most ``rows`` rows.

    The chunk holds the full float32 W1 once.  Only the rows of W1 its inputs
    reach train, at most ``live_rows`` of them (and at most F): the live model,
    its gradient and Adam's m and v take a live model's bytes each; every other
    row keeps its initial bits and has no gradient or moments.  Beside them are
    Adam's eight scratch blocks, one batch's activations (four (rows, H + B)
    arrays in ``PARAM_DTYPE`` and three in float64 for the loss) and
    :func:`init_model`'s float64 block of hidden units.
    """
    item = PARAM_DTYPE.itemsize
    f, h = engine.feature_dim, engine.hidden_dim
    live = item * num_params(min(live_rows, f), h, buckets)
    adam = 8 * ADAM_BLOCK_BYTES
    activations = rows * (h + buckets) * (4 * item + 24)
    init = 8 * min(h, INIT_BLOCK_UNITS) * f
    return item * f * h + 4 * live + adam + activations + init


# OpenBLAS's thread-count getter as NumPy 2 and NumPy 1 wheels, and 32-bit builds, name
# it; each setter's name has _set_ for _get_
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@functools.cache
def _numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with NumPy's wheel, if this process has it loaded (looked up once)."""
    import ctypes

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


def openblas_threads(count: int | None = None) -> int | None:
    """NumPy's OpenBLAS thread count in this process, first set to ``count`` if given.

    The setting is process-wide.  None, and nothing set, where NumPy uses
    another BLAS or none is found.  A product summed across threads can have
    other bits than at one, so training's workers and every command set 1.
    """
    import ctypes

    lib = _numpy_openblas()
    for name in _OPENBLAS_GETTERS:
        getter = getattr(lib, name, None)
        if getter is not None:
            # int get(void) and void set(int), in every OpenBLAS interface
            getter.argtypes, getter.restype = [], ctypes.c_int
            if count is not None:
                setter = getattr(lib, name.replace("_get_", "_set_"))
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(count)
            return getter()
    return None


def _memory_limit() -> int:
    """Physical memory, or this process's cgroup ``memory.max`` where lower; only reads."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        for line in Path("/proc/self/cgroup").read_text().splitlines():
            if line.startswith("0::"):  # the cgroup v2 hierarchy
                text = Path("/sys/fs/cgroup", line[3:].lstrip("/"), "memory.max").read_text()
                if text.strip().isdigit():
                    limit = min(limit, int(text))
    except OSError:
        pass
    return limit


def check_fits(need: int, what: str, advice: str = "") -> None:
    """Raise ``ValueError`` if ``what`` needs more than the machine's memory; ``advice`` follows."""
    have = _memory_limit()
    if need > have:
        gib = f"about {need / 2**30:.1f} GiB but this machine has {have / 2**30:.1f} GiB"
        raise ValueError(f"{what} needs {gib}{advice}")
