"""Model math tests: hand-computed forward values, gradients, Adam, blobs."""
from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sparsix.model as model_mod
from conftest import traced_peak
from sparsix.features import HashedFeatures
from sparsix.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    INIT_BLOCK_UNITS,
    LOSS_CLAMP_EPS,
    ChunkModel,
    Gradients,
    NonFiniteGradientError,
    apply_update,
    batch_step,
    bce_loss,
    forward,
    grad_check,
    init_model,
    load_model,
    save_model,
    sigmoid,
    zero_adam_state,
)


def hand_model() -> ChunkModel:
    """F=3, H=2, B=2 with fixed weights, small enough to check by hand.

    W1 is (F, H): row f holds input f's weight into each hidden unit.
    """
    return ChunkModel(
        chunk=0,
        init_seed=0,
        W1=np.array([[1.0, 0.0], [0.0, -1.0], [2.0, 1.0]]),
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

    def test_matches_hidden_major_gather_gemv(self):
        """The row gather gives the same bits as gathering columns of an (H, F) W1.

        Blobs and every earlier engine computed the hidden layer that way, so a
        reload's predictions stay byte-identical.
        """
        rng = np.random.default_rng(12)
        m = init_model(4096, 64, 32, init_seed=6)
        m.b1 = rng.uniform(-0.05, 0.05, size=64)
        w1_hf = np.ascontiguousarray(m.W1.T)
        for nnz in (0, 1, 8, 129, 500, 2000):
            for _ in range(3):
                idx = np.sort(rng.choice(4096, size=nnz, replace=False)).astype(np.int64)
                values = rng.uniform(0.5, 3.0, size=nnz)
                h = np.maximum(w1_hf[:, idx] @ values + m.b1, 0.0)
                want = sigmoid(m.W2 @ h + m.b2)
                got = forward(m, feats(idx, values, dim=4096))
                assert got.tobytes() == want.tobytes(), nnz


# float32 entries a model may hold: ±0, subnormals, the extremes, and ordinary weights
FLOAT32_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39, 3.4e38, -3.4e38, 1e30, -1e30]),
    st.floats(-4.0, 4.0, width=32),
)


@st.composite
def served_models(draw):
    """A float32 model with drawn entries, NaN in some of b2, and an input for it."""
    f, h, b = draw(st.integers(1, 40)), draw(st.integers(1, 9)), draw(st.integers(1, 17))

    def params(*shape):
        return draw(hnp.arrays(np.float32, shape, elements=FLOAT32_ENTRIES))

    b2 = params(b)
    b2[draw(hnp.arrays(bool, b))] = np.nan
    model = ChunkModel(0, 0, params(f, h), params(h), params(b, h), b2)
    indexes = np.array(sorted(draw(st.sets(st.integers(0, f - 1)))), dtype=np.int64)
    values = draw(
        hnp.arrays(np.float64, indexes.size, elements=st.sampled_from([1.0, 2.0, 3.0, 1e6, 2.0**60]))
    )
    return model, HashedFeatures(dim=f, indexes=indexes, values=values)


class TestForwardBits:
    @given(served=served_models())
    @settings(max_examples=300, deadline=None)
    def test_is_the_one_line_expression(self, served):
        """Bit for bit ``sigmoid(W2 @ relu(x W1 + b1) + b2)``, each step into a new
        array, on float32 models with ±0, subnormal and extreme entries and NaN
        in b2; the model is left as it was."""
        model, x = served
        before = [p.tobytes() for p in model.params()]
        with np.errstate(all="ignore"):
            h = np.maximum(x.values @ model.W1[x.indexes] + model.b1, 0.0)
            want = np.divide(1.0, 1.0 + np.exp(-(model.W2 @ h + model.b2)))
            got = forward(model, x)
        assert got.dtype == np.float64 and got.shape == (model.output_dim,)
        assert got.tobytes() == want.tobytes()
        assert [p.tobytes() for p in model.params()] == before


class TestSigmoid:
    @pytest.mark.parametrize("dtype, far", [(np.float64, 1000.0), (np.float32, 100.0)])
    def test_saturates_exactly_without_warnings(self, dtype, far):
        """Past exp's range the result is exactly 0 or 1, and nothing warns."""
        z = np.array([-far, -far / 2, 0.0, far / 2, far], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = sigmoid(z)
        assert p.dtype == dtype
        assert p[0] == 0.0 and p[2] == 0.5 and p[-1] == 1.0
        assert 0.0 <= p[1] < p[2] < p[3] <= 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_is_the_textbook_expression(self, dtype):
        """Bit for bit ``1 / (1 + exp(-z))`` in z's dtype, and z is left as it was."""
        z = np.random.default_rng(3).normal(0.0, 8.0, size=(50, 40)).astype(dtype)
        before = z.copy()
        want = np.divide(1.0, 1.0 + np.exp(-z))
        assert sigmoid(z).tobytes() == want.tobytes()
        assert z.tobytes() == before.tobytes()


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

    def test_blocks_of_hidden_units_give_one_draws_values(self):
        """W1 is drawn a few hidden units at a time, the last block partial; PCG64
        gives the values of one (H, F) draw, and W2 comes next in the stream."""
        f, h, b = 300, 2 * INIT_BLOCK_UNITS + 3, 7
        rng = np.random.Generator(np.random.PCG64(11))
        a1, a2 = np.sqrt(6.0 / (f + h)), np.sqrt(6.0 / (h + b))
        w1 = np.ascontiguousarray(rng.uniform(-a1, a1, size=(h, f)).T)
        w2 = rng.uniform(-a2, a2, size=(b, h))
        m = init_model(f, h, b, init_seed=11)
        assert m.W1.tobytes() == w1.tobytes() and m.W2.tobytes() == w2.tobytes()
        narrow = init_model(f, h, b, init_seed=11, dtype=np.float32)
        for got, want in zip(narrow.params(), m.params()):
            assert got.dtype == np.float32
            assert got.tobytes() == want.astype(np.float32).tobytes()

    def test_float32_init_holds_no_float64_w1(self):
        """At F=100000, H=64 a float64 W1 takes 51.2 MB; a float32 model peaks at its
        own 25.6 MB W1 and one float64 block of hidden units."""
        f, h = 100_000, 64
        _, peak = traced_peak(lambda: init_model(f, h, 4, init_seed=0, dtype=np.float32))
        assert peak <= 4 * f * h + 8 * INIT_BLOCK_UNITS * f + 64 * 1024


class TestLoss:
    def test_uninformative_point_gives_log_two(self):
        p = np.full((1, 8), 0.5)
        np.testing.assert_allclose(bce_loss(p, hot([1, 5], 8)), np.log(2.0), rtol=1e-14)

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

    def test_float32_reduces_in_float64(self):
        """Float32 p and y lose nothing: 1 - eps rounds to 1.0 in float32, so a
        float32 clamp would leave a saturated cold entry at log1p(-1)."""
        p = np.array([[1.0, 0.3, 0.0]], dtype=np.float32)
        y = np.array([[0.0, 1.0, 1.0]], dtype=np.float32)
        loss = bce_loss(p, y)
        assert np.isfinite(loss)
        assert loss.hex() == bce_loss(p.astype(np.float64), y.astype(np.float64)).hex()

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(0, 1, size=(3, 6))
            y = (rng.uniform(0, 1, size=(3, 6)) < 0.3).astype(np.float64)
            assert bce_loss(p, y) >= 0.0

    def test_matches_textbook_expression_bitwise(self):
        """Hot-only log gives the same bits as y*log(pc) + (1-y)*log1p(-pc) for 0/1 y."""
        rng = np.random.default_rng(8)
        for shape in [(1,), (9,), (4, 33), (200, 256)]:
            for _ in range(10):
                # powers push p toward 0, where log(1 - p) and log1p(-p) part
                p = rng.uniform(0, 1, size=shape) ** rng.integers(1, 40)
                p.flat[rng.integers(0, p.size, size=p.size // 8 + 1)] = 0.0
                p.flat[rng.integers(0, p.size, size=p.size // 8 + 1)] = 1.0
                y = (rng.uniform(0, 1, size=shape) < 0.3).astype(np.float64)
                before = p.copy()
                pc = np.clip(p, LOSS_CLAMP_EPS, 1.0 - LOSS_CLAMP_EPS)
                want = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)))
                assert bce_loss(p, y).hex() == want.hex()
                assert np.array_equal(p, before)


class TestBackward:
    def test_matches_finite_differences(self):
        """Analytic gradients agree with central differences to 1e-4."""
        rng = np.random.default_rng(3)
        for trial in range(5):
            m = init_model(20, 8, 10, init_seed=trial)
            idxs = np.sort(rng.choice(20, size=4, replace=False))
            vals = rng.integers(1, 4, size=4).astype(float)
            x = sp.csr_matrix((vals, idxs, [0, 4]), shape=(1, 20))
            y = hot(rng.choice(10, size=2, replace=False), 10)
            rel = grad_check(m, x, y, num_coords=200, seed=trial)
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
            rel = grad_check(m, x, y, num_coords=400, seed=trial)
            assert rel <= 1e-4

    def test_detects_wrong_gradients(self, monkeypatch):
        """A backward pass that doubles every gradient reads as a relative error of 0.5."""
        true_step = model_mod.batch_step

        def doubled(model, x_batch, y_batch):
            loss, grads = true_step(model, x_batch, y_batch)
            return loss, Gradients(*(2.0 * g for g in grads.arrays()))

        monkeypatch.setattr(model_mod, "batch_step", doubled)
        m = init_model(20, 8, 10, init_seed=5)
        x = rows([0.0] * 3 + [2.0] + [0.0] * 10 + [1.0] + [0.0] * 5)
        rel = grad_check(m, x, hot([2, 7], 10), num_coords=200, seed=0)
        assert rel >= 0.3

    def test_gradient_sparse_locality(self):
        """W1 rows for input indexes absent from every batch row get exactly zero gradient."""
        m = init_model(30, 6, 8, init_seed=1)
        dense = np.zeros((2, 30))
        dense[0, [2, 17]] = [1.0, 3.0]
        dense[1, 5] = 2.0
        y = np.zeros((2, 8))
        y[:, 0] = 1.0
        _, grads = batch_step(m, rows(*dense), y)
        active = np.zeros(30, dtype=bool)
        active[[2, 5, 17]] = True
        assert not np.any(grads.W1[~active])
        assert np.any(grads.W1[active])

    def test_relu_subgradient_at_zero_is_zero(self):
        m = hand_model()
        m.b1 = np.array([-2.0, -0.5])  # h_pre = [0.0, 0.5] for x = e2
        _, grads = batch_step(m, rows([0.0, 0.0, 1.0]), hot([1], 2))
        assert not np.any(grads.W1[:, 0])  # unit 0 sits exactly at the kink
        assert grads.b1[0] == 0.0

    def test_loss_value_matches_bce(self):
        m = hand_model()
        y = hot([0], 2)
        loss, _ = batch_step(m, rows([1.0, 0.0, 2.0]), y)
        assert loss == bce_loss(forward(m, feats([0, 2], [1.0, 2.0])), y[0])


def ref_adam_step(p, g, m, v, step, lr):
    """Adam as the allocating textbook expression, the reference for apply_update."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(g)
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def check_adam_against_reference(f: int, h: int, dtype: type) -> None:
    """40 steps on sparse batches, whose W1 gradients have zero and non-zero
    rows, leave p, m and v with the reference's bits, all in ``dtype``.  W1
    spans three row blocks, the last one partial."""
    rng = np.random.default_rng(21)
    m = init_model(f, h, 9, init_seed=3, dtype=dtype)
    ref = [p.copy() for p in m.params()]
    ref_m = [np.zeros_like(p) for p in ref]
    ref_v = [np.zeros_like(p) for p in ref]
    state = zero_adam_state(m)
    rows = state.scratch[0][0].shape[0]
    assert 2 * rows < f < 3 * rows
    lr = 2e-2
    saw_zero_row = saw_live_row = False
    for step in range(1, 41):
        x = sp.random(5, f, density=0.05, format="csr", random_state=step, dtype=dtype)
        x.data = rng.integers(1, 4, size=x.nnz).astype(dtype)
        y = (rng.uniform(0, 1, size=(5, 9)) < 0.3).astype(dtype)
        _, grads = batch_step(m, x, y)
        assert all(g.dtype == dtype for g in grads.arrays())
        live = np.any(grads.W1, axis=1)
        saw_zero_row |= not live.all()
        saw_live_row |= live.any()
        apply_update(m, grads, state, lr)
        for p, g, mom, var in zip(ref, grads.arrays(), ref_m, ref_v):
            ref_adam_step(p, g, mom, var, step, lr)
        for got, want in (
            (m.params(), ref),
            (state.m.arrays(), ref_m),
            (state.v.arrays(), ref_v),
        ):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), step
    assert saw_zero_row and saw_live_row


class TestAdam:
    def test_matches_allocating_reference(self):
        check_adam_against_reference(600, 64, np.float64)

    def test_matches_allocating_reference_in_float32(self):
        """A float32 row block holds twice a float64 block's rows."""
        check_adam_against_reference(1200, 64, np.float32)

    def test_first_step_is_signed_lr(self):
        """With zero state, bias correction makes step one ~ lr * sign(g)."""
        m = init_model(4, 3, 2, init_seed=0)
        before = [p.copy() for p in m.params()]
        g = Gradients(
            W1=np.full((4, 3), 0.25),
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
        """Every row block of every gradient is checked before any parameter changes."""
        m = init_model(1200, 64, 9, init_seed=0, dtype=np.float32)
        state = zero_adam_state(m)
        assert state.scratch[0][0].shape[0] < 1200  # W1 spans several blocks
        before = [p.copy() for p in m.params()]
        for name, at, bad in (("W2", (0, 0), np.inf), ("W1", (-1, -1), np.inf), ("b2", -1, np.nan)):
            g = Gradients(*(np.ones_like(p) for p in m.params()))
            getattr(g, name)[at] = bad
            with pytest.raises(NonFiniteGradientError, match="step 1"):
                apply_update(m, g, state, 1e-3)
        assert state.step == 0
        assert all(np.array_equal(p, q) for p, q in zip(m.params(), before))
        assert not any(np.any(a) for a in (*state.m.arrays(), *state.v.arrays()))

    def test_checks_finiteness_without_a_gradient_sized_mask(self):
        """At F=100000, H=64 a W1 mask would take 6.4 MB; the check reads each
        gradient's largest and smallest entry and allocates no mask."""
        m = init_model(100_000, 64, 4, init_seed=0, dtype=np.float32)
        g = Gradients(*(np.zeros_like(p) for p in m.params()))
        state = zero_adam_state(m)
        _, peak = traced_peak(lambda: apply_update(m, g, state, 1e-3))
        assert peak < 64 * 1024

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
        m = init_model(12, 5, 7, init_seed=3, chunk=2, dtype=np.float32)
        back = load_model(save_model(m))
        assert back.chunk == 2 and back.init_seed == 3
        assert back.input_dim == 12 and back.hidden_dim == 5 and back.output_dim == 7
        for a, b in zip(m.params(), back.params()):
            assert a.dtype == np.float32 and b.dtype == np.float32
            assert a.tobytes() == b.tobytes()
            # each is the model's own array, not a read-only view into the blob's bytes
            assert b.dtype.isnative and b.flags.c_contiguous and b.flags.writeable

    def test_quantize_idempotent(self):
        """Saving rounds to float32 once: a second round trip changes no bit."""
        m = load_model(save_model(init_model(12, 5, 7, init_seed=3)))
        snapshot = [p.copy() for p in m.params()]
        m = load_model(save_model(m))
        for p, s in zip(m.params(), snapshot):
            assert np.array_equal(p, s)

    def test_truncated_blob_rejected(self):
        """A blob is exactly its header and the payload the header claims: trailing
        bytes are rejected as well as missing ones."""
        raw = save_model(init_model(6, 3, 4, init_seed=1, dtype=np.float32))
        with pytest.raises(ValueError, match="claims 148 payload bytes, 145 follow"):
            load_model(raw[:-3])
        with pytest.raises(ValueError, match="header"):
            load_model(raw[:10])
        with pytest.raises(ValueError, match="claims 148 payload bytes, 152 follow"):
            load_model(raw + b"\0" * 4)

    def test_lying_header_allocates_less_than_it_claims(self):
        """A header claiming more payload than follows fails before any large allocation."""
        raw = save_model(init_model(6, 3, 4, init_seed=1, dtype=np.float32))
        # F and H of 2**20 and 2**12 claim 16 GiB for W1; 2**32 - 1 everywhere
        # claims more than int64 can count
        for f, h, b in ((2**20, 2**12, 4), (2**32 - 1, 2**32 - 1, 2**32 - 1)):
            lying = struct.pack("<IIIIQ", 0, f, h, b, 1) + raw[struct.calcsize("<IIIIQ"):]
            raised, peak = traced_peak(lambda: pytest.raises(ValueError, load_model, lying))
            raised.match("claims")
            assert peak < 4 * (f * h + h + b * h + b)

    def test_blob_holds_w1_hidden_major(self):
        """W1 is written (H, F), hidden unit by hidden unit, whatever the model holds."""
        start = struct.calcsize("<IIIIQ")
        want = np.array([[1, 0, 2], [0, -1, 1]], "<f4").tobytes()
        assert save_model(hand_model())[start : start + len(want)] == want

    def test_hand_packed_blob_loads_w1_transposed(self):
        """A blob packed (H, F) by hand loads with W1[f, h] equal to its (h, f) value."""
        f_dim, h_dim, b_dim = 3, 2, 2
        w1_hf = np.array([[1.5, -2.0, 0.25], [3.0, 0.5, -1.0]], "<f4")
        b1 = np.array([0.125, -0.75], "<f4")
        w2 = np.array([[4.0, -0.5], [2.0, 6.0]], "<f4")
        b2 = np.array([-3.0, 7.0], "<f4")
        blob = struct.pack("<IIIIQ", 5, f_dim, h_dim, b_dim, 11) + b"".join(
            a.tobytes() for a in (w1_hf, b1, w2, b2)
        )
        m = load_model(blob)
        assert (m.chunk, m.init_seed) == (5, 11)
        assert m.W1.shape == (f_dim, h_dim)
        for f in range(f_dim):
            for h in range(h_dim):
                assert m.W1[f, h] == w1_hf[h, f]
        assert np.array_equal(m.b1, b1) and np.array_equal(m.W2, w2) and np.array_equal(m.b2, b2)

    def test_forward_identical_after_reload(self):
        m = init_model(10, 4, 6, init_seed=8, dtype=np.float32)
        back = load_model(save_model(m))
        x = feats([1, 7], [2.0, 1.0], dim=10)
        assert np.array_equal(forward(m, x), forward(back, x))
