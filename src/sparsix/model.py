"""Per-chunk classifier: one-hidden-layer network with sigmoid outputs.

Each chunk trains its own network mapping hashed features to a probability
per bucket: ``p = sigmoid(W2 relu(x W1 + b1) + b2)``, against few-hot bucket
targets under mean binary cross entropy.  :func:`batch_step` is the only
code that computes the loss and its exact, analytic gradients, over a CSR
batch of hashed documents; ``grad_check`` checks that same function, the
one training calls, against central finite differences.  :func:`forward`
embeds one document at query time.  :func:`apply_update` takes one Adam step
with the standard constants below; the learning rate is the one
optimizer setting a run chooses.

Parameters live in float64 (all verification runs in double precision) but
are snapped to float32-representable values before persistence so that the
on-disk blobs round-trip bit-exactly.  W1 is held (F, H), one row per input
index, so a batch's sparse inputs read and write whole rows; blobs keep it in
(H, F) order.
"""
from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .features import HashedFeatures

LOSS_CLAMP_EPS = 1e-12
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam updates each parameter one block of whole rows at a time, at most this
# many elements, so that its fourteen passes over six arrays (768 KiB) stay in a
# core's cache.  At F=8192, H=64 on a 2-vCPU Xeon, whole-array passes made a
# step about a fifth slower.
ADAM_BLOCK_ELEMENTS = 16384


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


@dataclass(frozen=True)
class TargetVector:
    """Few-hot training target for one chunk: the OR of the labels' buckets."""

    chunk: int
    hot_buckets: np.ndarray = field(repr=False)  # int64, strictly increasing

    def __post_init__(self) -> None:
        hot = self.hot_buckets
        if hot.size and np.any(np.diff(hot) <= 0):
            raise ValueError("hot buckets must be strictly increasing")


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

    ``scratch`` holds two buffers per parameter, each one row block of it (see
    ``ADAM_BLOCK_ELEMENTS``), which :func:`apply_update` overwrites on every
    step so that it allocates nothing.
    """

    step: int
    m: Gradients
    v: Gradients
    scratch: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)


def init_model(
    input_dim: int, hidden_dim: int, output_dim: int, init_seed: int, chunk: int = 0
) -> ChunkModel:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    Each layer draws from ``uniform(-a, a)`` with ``a = sqrt(6/(fan_in+fan_out))``;
    W1 is drawn (H, F), before W2, and stored transposed, so the values do not
    depend on the storage layout.
    """
    if min(input_dim, hidden_dim, output_dim) < 1:
        raise ValueError("all model dimensions must be >= 1")
    rng = np.random.Generator(np.random.PCG64(init_seed))
    a1 = np.sqrt(6.0 / (input_dim + hidden_dim))
    a2 = np.sqrt(6.0 / (hidden_dim + output_dim))
    return ChunkModel(
        chunk=chunk,
        init_seed=init_seed,
        W1=np.ascontiguousarray(rng.uniform(-a1, a1, size=(hidden_dim, input_dim)).T),
        b1=np.zeros(hidden_dim),
        W2=rng.uniform(-a2, a2, size=(output_dim, hidden_dim)),
        b2=np.zeros(output_dim),
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
    """Uninitialised leading rows of ``p``: as many as fit ADAM_BLOCK_ELEMENTS, at least one."""
    rows = max(1, ADAM_BLOCK_ELEMENTS * p.shape[0] // p.size)
    return np.empty((min(rows, p.shape[0]), *p.shape[1:]))


def forward(model: ChunkModel, x: HashedFeatures) -> np.ndarray:
    """Bucket probability vector for one document, unclamped."""
    if x.dim != model.input_dim:
        raise ValueError(f"input dim {x.dim} != model input dim {model.input_dim}")
    # only the touched rows of W1 are read
    h = np.maximum(x.values @ model.W1[x.indexes] + model.b1, 0.0)
    return expit(model.W2 @ h + model.b2)


def target_dense(t: TargetVector, output_dim: int) -> np.ndarray:
    if t.hot_buckets.size and (
        t.hot_buckets[0] < 0 or t.hot_buckets[-1] >= output_dim
    ):
        raise ValueError("hot bucket out of range")
    y = np.zeros(output_dim)
    y[t.hot_buckets] = 1.0
    return y


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross entropy over every document and bucket.

    Probabilities are clamped to ``[eps, 1-eps]`` here and only here; raw
    probabilities flow to inference untouched.  Averaging over the bucket
    count keeps learning rates comparable across bucket-count sweeps.

    ``y`` must hold only 0 and 1, as training's targets do.  Each term is
    then ``log1p(-pc)`` where y = 0 and ``log(pc)`` where y = 1, so only the
    hot entries pay for a ``log``; the terms, and so the mean, have the same
    bits as ``y * log(pc) + (1 - y) * log1p(-pc)``.
    """
    pc = np.clip(p, LOSS_CLAMP_EPS, 1.0 - LOSS_CLAMP_EPS)
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
    return h_pre, h, expit(h @ model.W2.T + model.b2)


def batch_step(
    model: ChunkModel, x_batch: sp.csr_matrix, y_batch: np.ndarray
) -> tuple[float, Gradients]:
    """Mean-over-batch loss and its exact gradients, accumulated in a fixed order.

    ``y_batch`` is the dense (rows, B) 0/1 target matrix.  ReLU's subgradient
    at zero is taken as zero.  Rows of W1 for input indexes absent from
    every row of the batch get exactly zero gradient.
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
    to the bit.
    """
    for g in grads.arrays():
        if not np.all(np.isfinite(g)):
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
    x: HashedFeatures,
    t: TargetVector,
    step: float = 1e-4,
    num_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of :func:`batch_step` vs central differences for one document.

    The document becomes a one-row batch, so this checks the gradient that
    trains.
    """
    x_row = sp.csr_matrix((x.values, x.indexes, [0, x.indexes.size]), shape=(1, x.dim))
    y_row = target_dense(t, model.output_dim)[np.newaxis, :]
    return grad_check_batch(model, x_row, y_row, step, num_coords, seed)


def grad_check_batch(
    model: ChunkModel,
    x_batch: sp.csr_matrix,
    y_batch: np.ndarray,
    step: float = 1e-4,
    num_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of :func:`batch_step`'s gradients vs central differences.

    Samples ``num_coords`` parameter coordinates (all of them if the model is
    smaller).  Coordinates where both sides are exactly zero are skipped.
    """
    if step <= 0:
        raise ValueError("step must be positive")
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
        p[offset] = saved + step
        loss_plus = batch_step(model, x_batch, y_batch)[0]
        p[offset] = saved - step
        loss_minus = batch_step(model, x_batch, y_batch)[0]
        p[offset] = saved
        fd = (loss_plus - loss_minus) / (2.0 * step)
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


def quantize_to_f32(model: ChunkModel) -> ChunkModel:
    """Snap parameters to float32-representable values (still stored float64).

    Applied once when training finishes so that saving to the float32 blob
    format and loading back reproduces bit-identical forward outputs.
    """
    for p in model.params():
        p[...] = p.astype(np.float32).astype(np.float64)
    return model


def save_model(model: ChunkModel, fh: BinaryIO) -> None:
    """Header (chunk, F, H, B, init_seed), then W1, b1, W2, b2 as LE float32.

    W1 is written (H, F), hidden unit by hidden unit.
    """
    fh.write(
        _HEADER.pack(
            model.chunk,
            model.input_dim,
            model.hidden_dim,
            model.output_dim,
            model.init_seed,
        )
    )
    for p in (model.W1.T, model.b1, model.W2, model.b2):
        fh.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def load_model(fh: BinaryIO) -> ChunkModel:
    """Read a blob written by :func:`save_model`; parameters come back float64."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated model blob header")
    chunk, f, h, b, init_seed = _HEADER.unpack(raw)
    # Python ints: the product of two uint32 fields can overflow int64
    claimed = 4 * (h * f + h + b * h + b)
    here = fh.tell()
    left = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    if claimed > left:
        raise ValueError(
            f"model blob header claims {claimed} payload bytes, only {left} follow"
        )
    shapes = [(h, f), (h,), (b, h), (b,)]
    arrays = []
    for i, shape in enumerate(shapes):
        count = math.prod(shape)
        buf = fh.read(4 * count)
        if len(buf) != 4 * count:
            raise ValueError("truncated model blob payload")
        stored = np.frombuffer(buf, dtype="<f4").reshape(shape)
        # the blob holds W1 (H, F), the model (F, H)
        arrays.append((stored.T if i == 0 else stored).astype(np.float64, order="C"))
    return ChunkModel(chunk, init_seed, *arrays)
