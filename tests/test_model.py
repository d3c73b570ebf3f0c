"""Model math tests: hand-computed forward values, gradients, Adam, blobs."""
from __future__ import annotations

import io
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from sparsix.features import HashedFeatures
from sparsix.model import (
    ChunkModel,
    Gradients,
    NonFiniteGradientError,
    TargetVector,
    apply_update,
    batch_step,
    bce_loss,
    forward,
    grad_check,
    grad_check_batch,
    init_model,
    load_model,
    quantize_to_f32,
    save_model,
    target_dense,
    zero_adam_state,
)


def hand_model() -> ChunkModel:
    """F=3, H=2, B=2 with fixed weights, small enough to check by hand."""
    return ChunkModel(
        chunk=0,
        init_seed=0,
        W1=np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]]),
        b1=np.array([0.5, -0.5]),
        W2=np.array([[1.0, -1.0], [0.5, 0.5]]),
        b2=np.array([-4.0, -2.0]),
    )


def feats(indexes, values, dim=3) -> HashedFeatures:
    return HashedFeatures(
        dim=dim,
        indexes=np.array(indexes, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
    )


def rows(*dense_rows) -> sp.csr_matrix:
    """A CSR batch from dense input rows."""
    return sp.csr_matrix(np.array(dense_rows, dtype=np.float64))


def hot(buckets, output_dim) -> np.ndarray:
    """One dense target row with 1 on ``buckets``."""
    y = np.zeros((1, output_dim))
    y[0, buckets] = 1.0
    return y


class TestChunkModel:
    def test_sizes_come_from_arrays(self):
        m = hand_model()
        assert (m.input_dim, m.hidden_dim, m.output_dim) == (3, 2, 2)
        with pytest.raises(AttributeError):
            m.input_dim = 4


class TestForward:
    def test_hand_computed_probabilities(self):
        # x = [1, 0, 2]: h_pre = [5.5, 1.5], z = [0, 1.5]
        p = forward(hand_model(), feats([0, 2], [1.0, 2.0]))
        expected = np.array([0.5, 1.0 / (1.0 + np.exp(-1.5))])
        np.testing.assert_allclose(p, expected, rtol=1e-14)

    def test_relu_clamps_negative_unit(self):
        # x = [0, 1, 0]: h_pre = [0.5, -1.5] so unit 1 contributes nothing
        p = forward(hand_model(), feats([1], [1.0]))
        z = np.array([0.5 - 4.0, 0.25 - 2.0])
        np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(-z)), rtol=1e-14)

    def test_empty_input_uses_biases_only(self):
        m = hand_model()
        p = forward(m, feats([], []))
        h = np.maximum(m.b1, 0.0)
        z = m.W2 @ h + m.b2
        np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(-z)), rtol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward(hand_model(), feats([0], [1.0], dim=5))


class TestInit:
    def test_glorot_bounds(self):
        m = init_model(100, 20, 30, init_seed=4)
        assert np.abs(m.W1).max() <= np.sqrt(6.0 / 120)
        assert np.abs(m.W2).max() <= np.sqrt(6.0 / 50)
        assert not np.any(m.b1) and not np.any(m.b2)

    def test_deterministic_per_seed(self):
        a = init_model(10, 4, 6, init_seed=9)
        b = init_model(10, 4, 6, init_seed=9)
        c = init_model(10, 4, 6, init_seed=10)
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
        assert not np.array_equal(a.W1, c.W1)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            init_model(0, 4, 6, init_seed=0)


class TestLoss:
    def test_uninformative_point_gives_log_two(self):
        p = np.full(8, 0.5)
        t = TargetVector(chunk=0, hot_buckets=np.array([1, 5], dtype=np.int64))
        np.testing.assert_allclose(bce_loss(p, target_dense(t, 8)), np.log(2.0), rtol=1e-14)

    def test_hand_value(self):
        # B=2, p=(0.9, 0.2), hot={0}: -(log 0.9 + log 0.8)/2
        p = np.array([0.9, 0.2])
        y = np.array([1.0, 0.0])
        np.testing.assert_allclose(
            bce_loss(p, y), -(np.log(0.9) + np.log(0.8)) / 2.0, rtol=1e-12
        )
        assert abs(bce_loss(p, y) - 0.16425) < 5e-6
        # a batch averages over its rows as well as its buckets
        p2 = np.array([[0.9, 0.2], [0.5, 0.5]])
        y2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            bce_loss(p2, y2), (bce_loss(p, y) + np.log(2.0)) / 2.0, rtol=1e-12
        )

    def test_clamp_keeps_loss_finite(self):
        p = np.array([0.0, 1.0])
        assert np.isfinite(bce_loss(p, np.array([0.0, 1.0])))
        assert np.isfinite(bce_loss(p, np.array([1.0, 0.0])))

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(0, 1, size=(3, 6))
            y = (rng.uniform(0, 1, size=(3, 6)) < 0.3).astype(np.float64)
            assert bce_loss(p, y) >= 0.0

    def test_target_dense(self):
        t = TargetVector(chunk=0, hot_buckets=np.array([0, 3], dtype=np.int64))
        assert target_dense(t, 5).tolist() == [1.0, 0.0, 0.0, 1.0, 0.0]
        with pytest.raises(ValueError):
            target_dense(t, 3)


class TestBackward:
    def test_matches_finite_differences(self):
        """Analytic gradients agree with central differences to 1e-4."""
        rng = np.random.default_rng(3)
        for trial in range(5):
            m = init_model(20, 8, 10, init_seed=trial)
            idxs = np.sort(rng.choice(20, size=4, replace=False)).astype(np.int64)
            x = feats(idxs, rng.integers(1, 4, size=4).astype(float), dim=20)
            hot = np.sort(rng.choice(10, size=2, replace=False)).astype(np.int64)
            rel = grad_check(m, x, TargetVector(0, hot), step=1e-4, num_coords=200, seed=trial)
            assert rel <= 1e-4

    def test_batch_matches_finite_differences(self):
        """The mean over a multi-row batch, 1/(B*n), is in the analytic gradients."""
        rng = np.random.default_rng(4)
        for trial in range(3):
            m = init_model(20, 8, 10, init_seed=100 + trial)
            m.b1 = rng.uniform(-0.2, 0.2, size=8)
            n = 6
            x = sp.random(n, 20, density=0.25, format="csr", random_state=trial)
            x.data = rng.integers(1, 4, size=x.nnz).astype(np.float64)
            y = (rng.uniform(0, 1, size=(n, 10)) < 0.2).astype(np.float64)
            rel = grad_check_batch(m, x, y, step=1e-4, num_coords=400, seed=trial)
            assert rel <= 1e-4

    def test_gradient_sparse_locality(self):
        """W1 columns for input indexes absent from every row get exactly zero gradient."""
        m = init_model(30, 6, 8, init_seed=1)
        dense = np.zeros((2, 30))
        dense[0, [2, 17]] = [1.0, 3.0]
        dense[1, 5] = 2.0
        y = np.zeros((2, 8))
        y[:, 0] = 1.0
        _, grads = batch_step(m, rows(*dense), y)
        active = np.zeros(30, dtype=bool)
        active[[2, 5, 17]] = True
        assert not np.any(grads.W1[:, ~active])
        assert np.any(grads.W1[:, active])

    def test_relu_subgradient_at_zero_is_zero(self):
        m = hand_model()
        m.b1 = np.array([-2.0, -0.5])  # h_pre = [0.0, 0.5] for x = e2
        _, grads = batch_step(m, rows([0.0, 0.0, 1.0]), hot([1], 2))
        assert not np.any(grads.W1[0])  # unit 0 sits exactly at the kink
        assert grads.b1[0] == 0.0

    def test_loss_value_matches_bce(self):
        m = hand_model()
        y = hot([0], 2)
        loss, _ = batch_step(m, rows([1.0, 0.0, 2.0]), y)
        assert loss == bce_loss(forward(m, feats([0, 2], [1.0, 2.0])), y[0])


class TestAdam:
    def test_first_step_is_signed_lr(self):
        """With zero state, bias correction makes step one ~ lr * sign(g)."""
        m = init_model(4, 3, 2, init_seed=0)
        before = [p.copy() for p in m.params()]
        g = Gradients(
            W1=np.full((3, 4), 0.25),
            b1=np.array([-0.5, 0.25, 0.0]),
            W2=np.full((2, 3), -1.0),
            b2=np.array([2.0, -2.0]),
        )
        lr = 1e-2
        apply_update(m, g, zero_adam_state(m), lr)
        for p, old, grad in zip(m.params(), before, g.arrays()):
            expected = old - lr * np.sign(grad) * (np.abs(grad) > 0)
            np.testing.assert_allclose(p, expected, atol=1e-8)

    def test_updates_in_place_and_counts_steps(self):
        m = init_model(4, 3, 2, init_seed=0)
        state = zero_adam_state(m)
        g = Gradients(*(np.ones_like(p) for p in m.params()))
        same_m, same_state = apply_update(m, g, state, 1e-3)
        assert same_m is m and same_state is state
        assert state.step == 1
        apply_update(m, g, state, 1e-3)
        assert state.step == 2

    def test_rejects_non_finite_gradients(self):
        m = init_model(4, 3, 2, init_seed=0)
        g = Gradients(*(np.ones_like(p) for p in m.params()))
        g.W2[0, 0] = np.inf
        with pytest.raises(NonFiniteGradientError):
            apply_update(m, g, zero_adam_state(m), 1e-3)

    def test_training_reduces_loss(self):
        m = init_model(16, 6, 8, init_seed=5)
        x = rows([1.0, 2.0, 1.0, 1.0] + [0.0] * 12)
        y = hot([2, 6], 8)
        state = zero_adam_state(m)
        first, _ = batch_step(m, x, y)
        loss = first
        for _ in range(150):
            loss, grads = batch_step(m, x, y)
            apply_update(m, grads, state, 1e-2)
        assert loss < first / 5


class TestPersistence:
    def test_round_trip_bit_exact_after_quantize(self):
        m = quantize_to_f32(init_model(12, 5, 7, init_seed=3, chunk=2))
        buf = io.BytesIO()
        save_model(m, buf)
        buf.seek(0)
        back = load_model(buf)
        assert back.chunk == 2 and back.init_seed == 3
        assert back.input_dim == 12 and back.hidden_dim == 5 and back.output_dim == 7
        for a, b in zip(m.params(), back.params()):
            assert a.dtype == np.float64 and b.dtype == np.float64
            assert np.array_equal(a, b)

    def test_quantize_idempotent(self):
        m = init_model(12, 5, 7, init_seed=3)
        quantize_to_f32(m)
        snapshot = [p.copy() for p in m.params()]
        quantize_to_f32(m)
        for p, s in zip(m.params(), snapshot):
            assert np.array_equal(p, s)

    def test_truncated_blob_rejected(self):
        m = quantize_to_f32(init_model(6, 3, 4, init_seed=1))
        buf = io.BytesIO()
        save_model(m, buf)
        raw = buf.getvalue()
        with pytest.raises(ValueError):
            load_model(io.BytesIO(raw[:-3]))

    def test_lying_header_reads_no_more_than_the_stream(self):
        """A header claiming more payload than follows fails before any large read."""

        class ReadRecorder(io.BytesIO):
            largest = 0

            def read(self, size=-1):
                self.largest = max(self.largest, size)
                return super().read(size)

        m = quantize_to_f32(init_model(6, 3, 4, init_seed=1))
        buf = io.BytesIO()
        save_model(m, buf)
        raw = buf.getvalue()
        # F and H of 2**20 and 2**12 claim 16 GiB for W1; 2**32 - 1 everywhere
        # claims more than int64 can count
        for f, h, b in ((2**20, 2**12, 4), (2**32 - 1, 2**32 - 1, 2**32 - 1)):
            lying = struct.pack("<IIIIQ", 0, f, h, b, 1) + raw[struct.calcsize("<IIIIQ"):]
            stream = ReadRecorder(lying)
            with pytest.raises(ValueError):
                load_model(stream)
            assert stream.largest <= len(lying)

    def test_forward_identical_after_reload(self):
        m = quantize_to_f32(init_model(10, 4, 6, init_seed=8))
        buf = io.BytesIO()
        save_model(m, buf)
        buf.seek(0)
        back = load_model(buf)
        x = feats([1, 7], [2.0, 1.0], dim=10)
        assert np.array_equal(forward(m, x), forward(back, x))
