"""Training tests: OR-targets, determinism, parallel equivalence, learning."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import multiprocessing
import pickle
import time
import weakref

import numpy as np
import pytest

import sparsix.model as model_mod
from conftest import traced_peak
from sparsix import train
from sparsix.codes import CodeConfig, build_codebook, codebook_bytes
from sparsix.corpus import parse_corpus, read_block, write_corpus
from sparsix.features import DocBlock, Document, hash_features, make_document, row_offsets
from sparsix.manifest import save_ensemble
from sparsix.model import PARAM_DTYPE, _batch_forward, forward, init_model, num_params
from sparsix.model import _numpy_openblas, openblas_threads, save_model, step_bytes
from sparsix.train import (
    ChunkEnsemble,
    EngineConfig,
    TrainConfig,
    _chunk_matrix,
    _target_matrix,
    check_memory,
    train_all,
    train_chunk,
)


def small_setup(num_labels=40, num_chunks=3, buckets=16, seed=7):
    cc = CodeConfig(num_labels, num_chunks, buckets, base_seed=seed)
    cb = build_codebook(cc)
    eng = EngineConfig(feature_dim=128, hidden_dim=12, feature_seed=5, init_seed=9)
    rng = np.random.default_rng(0)
    docs = []
    for i in range(50):
        labels = sorted(set(rng.choice(num_labels, size=2, replace=False).tolist()))
        tokens = [(int(t), 1) for t in rng.choice(800, size=5, replace=False)]
        docs.append(make_document(i, tokens, labels))
    return cb, eng, docs


def hot_rows(cb, label_lists, chunk):
    """The target matrix for one document per label list, as lists of hot buckets."""
    docs = [make_document(i, [(1, 1)], labels) for i, labels in enumerate(label_lists)]
    mat = _target_matrix(DocBlock.from_documents(docs), cb, chunk)
    assert np.all(mat.data == 1.0)
    return [mat[r].indices.tolist() for r in range(mat.shape[0])]


class TestOrTarget:
    def test_union_of_label_buckets(self):
        cb = build_codebook(CodeConfig(4, 2, 8, base_seed=42))
        # codes: label1 -> [3,3], label3 -> [5,5]
        assert hot_rows(cb, [[1, 3]], chunk=0) == [[3, 5]]

    def test_colliding_labels_merge(self):
        cb = build_codebook(CodeConfig(12, 2, 8, base_seed=42))
        # chunk 0 puts labels 2 and 5 in bucket 6: one hot entry, not a count of 2;
        # chunk 1 puts labels 0 and 1 in buckets 7 and 3
        assert hot_rows(cb, [[2, 5], [0, 1]], chunk=0)[0] == [6]
        assert hot_rows(cb, [[2, 5], [0, 1]], chunk=1)[1] == [3, 7]

    def test_hot_count_bounded_by_label_count(self):
        cb = build_codebook(CodeConfig(100, 4, 8, base_seed=1))
        rng = np.random.default_rng(2)
        label_lists = [np.unique(rng.integers(0, 100, size=6)).tolist() for _ in range(50)]
        for chunk in range(4):
            for labels, hot in zip(label_lists, hot_rows(cb, label_lists, chunk)):
                assert 1 <= len(hot) <= len(labels)
                assert np.all(np.diff(hot) > 0)
                assert hot == sorted(set(cb.codes[labels, chunk].tolist()))

    def test_out_of_range_rejected(self):
        cb = build_codebook(CodeConfig(4, 2, 8, base_seed=42))
        with pytest.raises(ValueError):
            hot_rows(cb, [[0], [4]], 0)


class TestTrainChunk:
    def test_epoch_zero_loss_near_log_two(self):
        """Fresh sigmoid outputs sit at 0.5, so the first losses are ~log 2."""
        cb, eng, docs = small_setup()
        cfg = TrainConfig(epochs=1, batch_size=512, lr=1e-5, shuffle_seed=1)
        _, curve = train_chunk(0, DocBlock.from_documents(docs), cb, eng, cfg)
        assert abs(curve[0] - np.log(2.0)) < 0.02

    def test_single_document_overfits(self):
        cb, eng, docs = small_setup()
        cfg = TrainConfig(epochs=200, batch_size=1, lr=1e-2, shuffle_seed=0)
        block = DocBlock.from_documents(docs[:1])
        model, _ = train_chunk(0, block, cb, eng, cfg)
        x = hash_features(docs[0], eng.chunk_feature_seed(0), eng.feature_dim, "counts")
        p = forward(model, x)[0]
        hot = _target_matrix(block, cb, 0).indices
        mask = np.zeros(p.size, dtype=bool)
        mask[hot] = True
        assert p[mask].min() > 0.9
        assert p[~mask].max() < 0.2

    def test_loss_decreases(self):
        cb, eng, docs = small_setup()
        cfg = TrainConfig(epochs=20, batch_size=8, lr=5e-3, shuffle_seed=3)
        _, curve = train_chunk(1, DocBlock.from_documents(docs), cb, eng, cfg)
        assert curve[-1] < curve[0] / 2

    def test_parameters_are_f32_representable(self):
        cb, eng, docs = small_setup()
        cfg = TrainConfig(epochs=2, batch_size=16)
        model, _ = train_chunk(0, DocBlock.from_documents(docs), cb, eng, cfg)
        for p in model.params():
            assert p.dtype == np.float32

    def test_steps_run_in_float32(self, monkeypatch):
        """Parameters, batches, gradients and Adam's arrays stay float32 while training."""
        cb, eng, docs = small_setup()
        seen = {"steps": 0}
        true_step, true_state = train._batch_step, train.zero_adam_state

        def step(model, x_batch, y_batch):
            assert {p.dtype for p in model.params()} == {np.dtype(np.float32)}
            assert x_batch.data.dtype == np.float32 and y_batch.dtype == np.float32
            loss, grads = true_step(model, x_batch, y_batch)
            assert {g.dtype for g in grads.arrays()} == {np.dtype(np.float32)}
            seen["steps"] += 1
            return loss, grads

        def state(model):
            adam = true_state(model)
            scratch = [a for pair in adam.scratch for a in pair]
            buffers = [*adam.m.arrays(), *adam.v.arrays(), *scratch]
            assert {a.dtype for a in buffers} == {np.dtype(np.float32)}
            seen["state"] = adam
            return adam

        monkeypatch.setattr(train, "_batch_step", step)
        monkeypatch.setattr(train, "zero_adam_state", state)
        cfg = TrainConfig(epochs=2, batch_size=16)
        model, _ = train_chunk(0, DocBlock.from_documents(docs), cb, eng, cfg)
        assert seen["steps"] == 8 and seen["state"].step == 8
        assert {p.dtype for p in model.params()} == {np.dtype(np.float32)}

    def test_batch_features_match_single_document_hashing(self):
        cb, eng, docs = small_setup()
        # a collision-heavy width, and a document without tokens mid-batch
        docs = docs[:5] + [make_document(99, [], [1])] + docs[5:]
        # counts past 2**53, where a float sum depends on its order, sharing slots
        big = [make_document(0, [(0, 2**60), (1, 128), (2, 128), (3, 1), (4, 2**55 + 3)], [1])]
        seed0 = eng.chunk_feature_seed(0)
        for batch, dim in ((docs, 16), (big, 1), (big, 2), (big, 3)):
            for mode in ("counts", "binary"):
                mat = _chunk_matrix(DocBlock.from_documents(batch), seed0, dim, mode)
                for row, doc in enumerate(batch):
                    feats = hash_features(doc, seed0, dim, mode)
                    dense = np.zeros(dim)
                    dense[feats.indexes] = feats.values
                    assert np.array_equal(mat[row].toarray().ravel(), dense)

    def test_serving_forward_matches_batch_forward(self):
        """The query-time forward and the training forward agree row for row."""
        cb, eng, docs = small_setup()
        block = DocBlock.from_documents(docs)
        cfg = TrainConfig(epochs=5, batch_size=8, lr=5e-3)
        model, _ = train_chunk(0, block, cb, eng, cfg)
        seed0 = eng.chunk_feature_seed(0)
        _, _, batch_p = _batch_forward(
            model, _chunk_matrix(block, seed0, eng.feature_dim, "counts")
        )
        p = forward(model, hash_features(docs, seed0, eng.feature_dim, "counts"))
        # same products, but a BLAS may sum them in another order
        np.testing.assert_allclose(p, batch_p, rtol=1e-12, atol=0.0)

    def test_no_labeled_documents_rejected(self):
        """train_chunk trains on every row it gets: no rows, or an unlabeled one, fail."""
        cb, eng, _ = small_setup()
        for label_lists in ([], [[2], []]):
            docs = [make_document(i, [(1, 1)], labels) for i, labels in enumerate(label_lists)]
            with pytest.raises(ValueError, match="labels on every one"):
                train_chunk(0, DocBlock.from_documents(docs), cb, eng, TrainConfig(epochs=1))

    @pytest.mark.parametrize("bad_label", [-1, 40])
    def test_label_outside_codebook_rejected(self, bad_label):
        """A label below 0, or at or above num_labels, has no code to target.

        A block's arrays are unchecked, and a Document refuses a negative label
        itself, so the bad label comes in a block built from its arrays."""
        cb, eng, _ = small_setup(num_labels=40)
        ids, ones, one_each = np.array([1, 2], np.uint64), np.ones(2, np.int64), row_offsets([1, 1])
        labels = np.array([3, *sorted([bad_label, 39])], np.int64)
        block = DocBlock(ids, ones, one_each, labels, row_offsets([1, 2]))
        with pytest.raises(ValueError, match="label id out of range"):
            train_all(block, cb, eng, TrainConfig(epochs=1))


class TestDocBlock:
    def test_row_slices_are_the_documents_arrays(self):
        _, _, docs = small_setup()
        docs = docs[:3] + [make_document(99, [], [1]), make_document(98, [(4, 2)], [])] + docs[3:]
        block = DocBlock.from_documents(docs)
        assert block.token_offsets.size == block.label_offsets.size == len(docs) + 1
        for r, doc in enumerate(docs):
            tokens = slice(block.token_offsets[r], block.token_offsets[r + 1])
            labels = slice(block.label_offsets[r], block.label_offsets[r + 1])
            assert np.array_equal(block.token_ids[tokens], doc.token_ids)
            assert np.array_equal(block.token_counts[tokens], doc.token_counts)
            assert np.array_equal(block.labels[labels], doc.labels)
        assert block.token_ids.dtype == np.uint64 and block.labels.dtype == np.int64

        # labeled() keeps the labeled rows in order, and returns itself when they all are
        labeled = block.labeled()
        want = DocBlock.from_documents([d for d in docs if d.labels.size])
        for name in ("token_ids", "token_counts", "token_offsets", "labels", "label_offsets"):
            assert np.array_equal(getattr(labeled, name), getattr(want, name)), name
            assert getattr(labeled, name).dtype == getattr(want, name).dtype, name
        assert labeled.label_offsets.size == len(docs)  # one row fewer
        assert labeled.labeled() is labeled

    def test_wide_ids_and_labels_keep_their_values(self):
        """int64 token ids and uint64 labels, which Document accepts, are cast, not
        promoted to float64: the block row hashes as serving hashes the document."""
        cb = build_codebook(CodeConfig(12, 2, 8, base_seed=42))
        doc = Document(
            doc_id=0,
            token_ids=np.array([2**60 + 1, 5], dtype=np.int64),
            token_counts=np.array([1, 2], dtype=np.int64),
            labels=np.array([3, 7], dtype=np.uint64),
        )
        block = DocBlock.from_documents([doc])
        assert block.token_ids.dtype == np.uint64 and block.labels.dtype == np.int64
        feats = hash_features(doc, 3, 2**20)
        row = _chunk_matrix(block, 3, 2**20, "counts")
        assert row.indices.tolist() == feats.indexes.tolist()
        assert row.data.tolist() == feats.values.tolist()
        assert sorted(_target_matrix(block, cb, 0).indices) == sorted(set(cb.codes[[3, 7], 0]))

    def test_matrices_leave_the_block_unchanged(self):
        """Summing colliding entries must not rewrite the shared block's offsets."""
        cb = build_codebook(CodeConfig(12, 2, 8, base_seed=42))
        docs = [make_document(i, [(t, 1) for t in range(40)], [2, 5]) for i in range(3)]
        block = DocBlock.from_documents(docs)
        # int32 offsets, which scipy would otherwise adopt as its own row pointers
        block = dataclasses.replace(
            block,
            token_offsets=block.token_offsets.astype(np.int32),
            label_offsets=block.label_offsets.astype(np.int32),
        )
        token_offsets, label_offsets = block.token_offsets.copy(), block.label_offsets.copy()
        _chunk_matrix(block, 0, 16, "counts")
        _target_matrix(block, cb, 0)  # labels 2 and 5 share bucket 6 in chunk 0
        assert np.array_equal(block.token_offsets, token_offsets)
        assert np.array_equal(block.label_offsets, label_offsets)

    def test_pickle_holds_no_per_document_objects(self):
        rng = np.random.default_rng(3)
        docs = [
            make_document(i, [(int(t), 1) for t in rng.choice(5000, 4, replace=False)], [i % 50])
            for i in range(1000)
        ]
        block = DocBlock.from_documents(docs)
        arrays = (
            block.token_ids,
            block.token_counts,
            block.token_offsets,
            block.labels,
            block.label_offsets,
        )
        assert len(pickle.dumps(block)) <= sum(a.nbytes for a in arrays) + 4096


_CHUNK_TASK = train._train_chunk_task


def _chunk_task_reporting_blas_threads(payload):
    """A chunk task whose last field is the worker's BLAS thread count."""
    model, curve, _ = _CHUNK_TASK(payload)
    return model, curve, openblas_threads()


def _chunk_task_reporting_its_payload(payload):
    """A chunk task whose last field is its payload."""
    model, curve, _ = _CHUNK_TASK(payload)
    return model, curve, payload


@pytest.fixture(params=["spawn", "forkserver"])
def spawned_pools(request):
    """Pools start their workers by ``spawn``, as macOS does by default, or by
    ``forkserver``, as Python 3.14 does on Linux."""
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(before, force=True)


def _chunk_task_failing(payload):
    raise RuntimeError("chunk failed")


def _watch_the_caller(monkeypatch, workers: int, fails: bool):
    """Runs ``train_all`` on a block with an unlabeled row, so that it trains on a block of its
    own, with each chunk reporting its BLAS thread count, or failing.  Checks that the caller
    holds no job while it checks the run's memory or after the run, that nothing holds the
    block the chunks trained on and that no worker process is left.  Gives the chunks' thread
    counts (None if the run raised) and the caller's, as it checked the memory and after."""
    cb, eng, docs = small_setup(num_chunks=3)
    seen, trained_on = [], []

    def memory_checked_in_the_caller(block, *configs):
        seen.append((openblas_threads(), train._job is None))
        trained_on.append(weakref.ref(block))
        check_memory(block, *configs)

    monkeypatch.setattr(train, "check_memory", memory_checked_in_the_caller)
    task = _chunk_task_failing if fails else _chunk_task_reporting_blas_threads
    monkeypatch.setattr(train, "_train_chunk_task", task)
    documents = DocBlock.from_documents([*docs, make_document(50, [(1, 1)], [])])
    cfg = TrainConfig(epochs=1, batch_size=16, workers=workers)
    chunk_threads = None
    if fails:
        with pytest.raises(RuntimeError, match="chunk failed"):
            train_all(documents, cb, eng, cfg)
    else:
        chunk_threads = train_all(documents, cb, eng, cfg).chunk_seconds
    seen.append((openblas_threads(), train._job is None))
    gc.collect()
    assert [no_job for _, no_job in seen] == [True, True]
    assert len(trained_on) == 1 and trained_on[0]() is None
    assert multiprocessing.active_children() == []
    return chunk_threads, [threads for threads, _ in seen]


def _assert_chunks_at_one_thread_and_the_caller_at_two(monkeypatch, workers: int) -> None:
    before = openblas_threads()
    openblas_threads(2)
    try:
        for fails in (False, True):
            chunk_threads, caller_threads = _watch_the_caller(monkeypatch, workers, fails)
            assert chunk_threads == (None if fails else [1, 1, 1])
            assert caller_threads == [2, 2]
    finally:
        openblas_threads(before)


def _chunk_task_timing_its_targets_and_end(payload):
    """A chunk task whose last field is when it built its targets and when it was done,
    on the system-wide monotonic clock."""
    built = []

    def timed_targets(block, cb, chunk):
        built.append(time.monotonic_ns())
        return _target_matrix(block, cb, chunk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "_target_matrix", timed_targets)
        model, curve, _ = _CHUNK_TASK(payload)
    return model, curve, (built[0], time.monotonic_ns())


# sha256 of the blobs small_setup's corpus trains, recorded before training
# was restricted to the rows of W1 a chunk's inputs reach: at F = 16 every row
# is live, at F = 100,000 at most 250 are.  Another BLAS, summing a product in
# another order, would give other digests.  These are the format-2 blobs (W1
# stored (F, H)); the same learned parameters gave 5d28ea87…5f9e and
# 920347c2…6f46 stored (H, F), as format 1 did.
LEARNED_DIGESTS = {
    16: "fb12f09c7639a5c720c8e27d70bc847faa755c3c35721912dd42b0fda1fb2493",
    100_000: "762c66e730cf0181b2e02d633d862a56d839ff40099658e9673b685d7e76f999",
}


def live_rows(block, eng, chunk):
    """The rows of W1 some row of ``block`` reaches in ``chunk``, as a mask."""
    x = _chunk_matrix(block, eng.chunk_feature_seed(chunk), eng.feature_dim, eng.feature_mode)
    live = np.zeros(eng.feature_dim, dtype=bool)
    live[x.indices] = True
    return live


class TestLiveRows:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("feature_dim", sorted(LEARNED_DIGESTS))
    def test_blobs_keep_their_recorded_bytes(self, feature_dim, workers):
        cb, eng, docs = small_setup()
        eng = dataclasses.replace(eng, feature_dim=feature_dim)
        block = DocBlock.from_documents(docs)
        live = [live_rows(block, eng, c).sum() for c in range(3)]
        assert min(live) == feature_dim if feature_dim == 16 else max(live) <= 250
        cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-2, shuffle_seed=4, workers=workers)
        blobs = b"".join(save_model(m) for m in train_all(docs, cb, eng, cfg).ensemble.models)
        assert hashlib.sha256(blobs).hexdigest() == LEARNED_DIGESTS[feature_dim]

    def test_rows_no_input_reaches_keep_their_initial_bits(self):
        cb, eng, docs = small_setup()
        eng = dataclasses.replace(eng, feature_dim=100_000)
        block = DocBlock.from_documents(docs)
        cfg = TrainConfig(epochs=3, batch_size=16, lr=1e-2)
        for chunk in range(3):
            model, _ = train_chunk(chunk, block, cb, eng, cfg)
            seed = eng.chunk_init_seed(chunk)
            init = init_model(100_000, eng.hidden_dim, 16, seed, chunk, dtype=PARAM_DTYPE)
            live = live_rows(block, eng, chunk)
            assert model.W1[~live].tobytes() == init.W1[~live].tobytes()
            assert np.all(np.any(model.W1[live] != init.W1[live], axis=1))

    def test_block_without_tokens_trains_no_row(self):
        """No input reaches any row: W1 keeps its initial bits, and b2 trains."""
        cb, eng, _ = small_setup()
        docs = [make_document(i, [], [i]) for i in range(4)]
        cfg = TrainConfig(epochs=2, batch_size=3, lr=1e-2)
        model, _ = train_chunk(0, DocBlock.from_documents(docs), cb, eng, cfg)
        init = init_model(128, 12, 16, eng.chunk_init_seed(0), 0, dtype=PARAM_DTYPE)
        assert model.W1.tobytes() == init.W1.tobytes()
        assert np.any(model.b2)


class TestTrainAll:
    def test_deterministic_across_runs(self):
        cb, eng, docs = small_setup()
        cfg = TrainConfig(epochs=3, batch_size=16, shuffle_seed=4)
        a = train_all(docs, cb, eng, cfg)
        b = train_all(docs, cb, eng, cfg)
        for m1, m2 in zip(a.ensemble.models, b.ensemble.models):
            for p1, p2 in zip(m1.params(), m2.params()):
                assert np.array_equal(p1, p2)

    def test_parallel_matches_serial_bitwise(self):
        """Worker processes replay the exact serial computation per chunk."""
        cb, eng, docs = small_setup(num_chunks=3)
        serial = train_all(docs, cb, eng, TrainConfig(epochs=2, batch_size=16, workers=1))
        parallel = train_all(docs, cb, eng, TrainConfig(epochs=2, batch_size=16, workers=3))
        for m1, m2 in zip(serial.ensemble.models, parallel.ensemble.models):
            for p1, p2 in zip(m1.params(), m2.params()):
                assert np.array_equal(p1, p2)
        assert serial.loss_curves == parallel.loss_curves

    def test_parallel_matches_serial_bitwise_at_threaded_blas_sizes(self):
        """Batches big enough for a multithreaded GEMM, in a pool of one and of two."""
        cb, eng, docs = small_setup(num_labels=200, num_chunks=2, buckets=256)
        eng = EngineConfig(feature_dim=512, hidden_dim=48, feature_seed=5, init_seed=9)
        serial = train_all(docs, cb, eng, TrainConfig(epochs=1, batch_size=50, workers=1))
        parallel = train_all(docs, cb, eng, TrainConfig(epochs=1, batch_size=50, workers=2))
        for m1, m2 in zip(serial.ensemble.models, parallel.ensemble.models):
            for p1, p2 in zip(m1.params(), m2.params()):
                assert np.array_equal(p1, p2)

    def test_blobs_identical_at_one_two_and_four_workers(self, tmp_path):
        """Five chunks: two and four workers each start a chunk as another finishes."""
        cb, eng, docs = small_setup(num_chunks=5)
        blobs = []
        for workers in (1, 2, 4):
            result = train_all(docs, cb, eng, TrainConfig(epochs=1, batch_size=16, workers=workers))
            save_ensemble(result.ensemble, tmp_path / str(workers))
            blobs.append([p.read_bytes() for p in sorted((tmp_path / str(workers)).glob("*.bin"))])
        assert len(blobs[0]) == 5 and blobs[0] == blobs[1] == blobs[2]

    def test_pool_builds_targets_only_for_a_free_worker(self, monkeypatch):
        """With two workers, chunk c's targets are built after chunk c - 2 or a later one ended:
        each chunk builds its own, in its worker."""
        cb, eng, docs = small_setup(num_chunks=5)
        monkeypatch.setattr(train, "_train_chunk_task", _chunk_task_timing_its_targets_and_end)
        result = train_all(docs, cb, eng, TrainConfig(epochs=1, batch_size=16, workers=2))
        assert [m.chunk for m in result.ensemble.models] == list(range(5))
        times = result.chunk_seconds
        for chunk, (built, _) in enumerate(times):
            assert sum(end < built for _, end in times) >= chunk - 1, times

    @pytest.mark.skipif(_numpy_openblas() is None, reason="NumPy does not use a bundled OpenBLAS")
    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        _assert_chunks_at_one_thread_and_the_caller_at_two(monkeypatch, workers=2)

    @pytest.mark.skipif(_numpy_openblas() is None, reason="NumPy does not use a bundled OpenBLAS")
    def test_serial_run_trains_at_one_thread_and_puts_the_callers_back(self, monkeypatch):
        """At two threads in the caller, a one-worker run trains each chunk at one, and the
        caller is at two while it checks the run's memory and once the run returns or raises."""
        _assert_chunks_at_one_thread_and_the_caller_at_two(monkeypatch, workers=1)

    @pytest.mark.parametrize("fails", [False, True])
    def test_serial_run_keeps_no_block(self, monkeypatch, fails):
        """While a one-worker run checks its memory, and once it returns or raises, the caller
        holds no worker job, nothing holds the block its chunks trained on, and no worker is
        left running."""
        _watch_the_caller(monkeypatch, workers=1, fails=fails)

    @pytest.mark.parametrize("fails", [False, True])
    def test_pool_run_keeps_no_block(self, monkeypatch, fails):
        _watch_the_caller(monkeypatch, workers=2, fails=fails)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_payload_carries_no_block(self, monkeypatch, workers):
        """A chunk's payload is its chunk id alone: the block, codebook and configs reach a
        worker once, as it starts."""
        cb, eng, docs = small_setup(num_chunks=2)
        monkeypatch.setattr(train, "_train_chunk_task", _chunk_task_reporting_its_payload)
        cfg = TrainConfig(epochs=1, batch_size=16, workers=workers)
        assert train_all(docs, cb, eng, cfg).chunk_seconds == [(0,), (1,)]

    def test_spawned_pool_trains_the_serial_bytes(self, spawned_pools):
        """Spawned workers unpickle the job once each, as they start, and learn the same bytes."""
        cb, eng, docs = small_setup(num_chunks=3)
        runs = [
            train_all(docs, cb, eng, TrainConfig(epochs=2, batch_size=16, workers=workers))
            for workers in (1, 2)
        ]
        serial, spawned = ([save_model(m) for m in r.ensemble.models] for r in runs)
        assert len(serial) == 3 and serial == spawned
        assert runs[0].loss_curves == runs[1].loss_curves

    def test_unlabeled_documents_skipped_and_counted(self, tmp_path):
        """A read block and a parsed document list lose the same rows and train the same bytes."""
        cb, eng, docs = small_setup()
        docs = docs[:7] + [make_document(50, [(5, 1)], [])] + docs[7:10] + [
            make_document(51, [(6, 2)], [])
        ]
        corpus = tmp_path / "c.txt"
        write_corpus(corpus, docs, num_features=800, num_labels=40)
        cfg = TrainConfig(epochs=1, batch_size=8)
        blobs = []
        for name, documents in [("block", read_block(corpus)), ("list", list(parse_corpus(corpus)))]:
            result = train_all(documents, cb, eng, cfg)
            assert result.skipped_unlabeled == 2
            save_ensemble(result.ensemble, tmp_path / name, cfg)
            blobs.append([p.read_bytes() for p in sorted((tmp_path / name).glob("*.bin"))])
        assert len(blobs[0]) == 3
        assert blobs[0] == blobs[1]

    def test_all_unlabeled_rejected(self):
        cb, eng, _ = small_setup()
        docs = [make_document(i, [(i, 1)], []) for i in range(5)]
        with pytest.raises(ValueError):
            train_all(docs, cb, eng, TrainConfig(epochs=1))

    def test_single_chunk_degenerate(self):
        cb, eng, docs = small_setup(num_chunks=1)
        result = train_all(docs, cb, eng, TrainConfig(epochs=2, batch_size=16))
        assert len(result.ensemble.models) == 1
        assert len(result.loss_curves) == 1


class TestMemoryCheck:
    def test_over_any_machine_fails_before_training(self, monkeypatch):
        """An estimate past 2**64 bytes fails fast and names the knobs to lower."""
        cb, _, docs = small_setup()
        eng = EngineConfig(feature_dim=2**32 - 1, hidden_dim=2**31)
        monkeypatch.setattr(train, "_train_chunk_task", pytest.fail)
        knobs = r"hidden_dim \(2147483648\), feature_dim \(4294967295\), workers \(2\)"
        with pytest.raises(ValueError, match=knobs):
            train_all(docs, cb, eng, TrainConfig(epochs=1, workers=2))

    def test_shipped_defaults_fail_on_a_small_host(self, monkeypatch):
        """F=100000, H=4096, B=30000 needs more than 7.8 GB even for one chunk,
        on a corpus of at least F distinct token ids, which may reach every row."""
        cb = build_codebook(CodeConfig(40, 1, 30000, base_seed=7))
        eng = EngineConfig(feature_dim=100000, hidden_dim=4096)
        cfg = TrainConfig(epochs=1, batch_size=1000)
        _, _, docs = small_setup()
        wide = make_document(50, [(t, 1) for t in range(1000, 101_000)], [3])
        block = DocBlock.from_documents([*docs, wide])
        # float32 parameters, gradient, m and v alone
        assert train._training_bytes(block, cb.config, eng, cfg) > 16 * (100000 + 30000 + 1) * 4096
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: 7_800_000_000)
        monkeypatch.setattr(train, "_train_chunk_task", pytest.fail)
        with pytest.raises(ValueError, match="GiB but this machine has 7.3 GiB"):
            train_all(block, cb, eng, cfg)

    def test_estimate_counts_running_chunks_and_the_ensemble(self):
        """Workers beyond K add nothing; every chunk's float32 model is kept, each
        running chunk's target matrix and int32 codebook, and the caller's codebook."""
        _, eng, docs = small_setup()
        block = DocBlock.from_documents(docs)
        code = CodeConfig(40, 2, 16, base_seed=7)
        one, two, three = (
            train._training_bytes(block, code, eng, TrainConfig(epochs=1, workers=w))
            for w in (1, 2, 3)
        )
        ensemble = 2 * 4 * (128 * 12 + 12 + 16 * 12 + 16)
        targets = (4 + 8) * block.labels.size + 8 * (50 + 1)
        codebook = 4 * 40 * 2
        assert two - one == one - ensemble - codebook and three == two
        assert one - ensemble - codebook > targets + codebook

    @pytest.mark.parametrize(
        "labeled, feature_dim, workers, batch_size, recorded",
        [
            (False, 128, 1, 16, 1160496),
            (False, 100_000, 2, 1000, 40962224),
            (True, 128, 1, 16, 1160288),
            (True, 100_000, 2, 1000, 40958800),
        ],
    )
    def test_estimate_keeps_its_recorded_bytes(
        self, labeled, feature_dim, workers, batch_size, recorded
    ):
        """The bytes the estimate gave when every call sorted the block's token ids;
        at F=128 every row is live, at F=100000 the distinct ids bound them.  Since
        chunks build their own targets, each running chunk also holds a codebook."""
        cb, _, docs = small_setup()
        block = DocBlock.from_documents([*docs, make_document(50, [(3, 1), (900, 2)], [])])
        block = block.labeled() if labeled else block
        eng = EngineConfig(feature_dim=feature_dim, hidden_dim=12)
        cfg = TrainConfig(epochs=1, batch_size=batch_size, workers=workers)
        codebooks = workers * codebook_bytes(cb.config)  # workers <= K = 3
        assert train._training_bytes(block, cb.config, eng, cfg) == recorded + codebooks

    def test_one_chunk_peaks_within_its_share(self):
        """A traced chunk allocates no more than the estimate less its ensemble term.

        At F=100000, H=64 the parameters, m, v and one batch's W1 gradient
        dominate; apply_update's finiteness mask covers one row block, not W1.
        """
        cb, _, docs = small_setup(num_chunks=1)
        block = DocBlock.from_documents(docs[:40])
        eng = EngineConfig(feature_dim=100_000, hidden_dim=64, feature_seed=5, init_seed=9)
        cfg = TrainConfig(epochs=1, batch_size=10)
        b = cb.config.buckets_per_chunk
        ensemble = PARAM_DTYPE.itemsize * num_params(100_000, 64, b)
        share = train._training_bytes(block, cb.config, eng, cfg) - ensemble
        _, peak = traced_peak(lambda: train_chunk(0, block, cb, eng, cfg))
        assert peak <= share

    def test_step_counts_one_w1_and_its_live_rows(self):
        """At F=100000, H=64 a step counted four whole models (102 MB) when it walked
        all of W1.  With 200 live rows it counts one float32 W1, init's float64
        block and under 3 MB more; each live row adds 16 bytes a weight, up to F."""
        eng = EngineConfig(feature_dim=100_000, hidden_dim=64)
        assert step_bytes(eng, 16, 10, 200) < 4 * 100_000 * 64 + 8 * 8 * 100_000 + 3_000_000
        assert step_bytes(eng, 16, 10, 201) - step_bytes(eng, 16, 10, 200) == 16 * 64
        assert step_bytes(eng, 16, 10, 10**9) == step_bytes(eng, 16, 10, 100_000)

    def test_training_and_saving_peak_within_the_estimate(self, tmp_path):
        """With few live rows, the blobs save_ensemble builds outweigh a chunk's step:
        the estimate covers both phases, within interpreter overhead."""
        cb, _, docs = small_setup(num_chunks=2)
        block = DocBlock.from_documents(docs[:40])
        eng = EngineConfig(feature_dim=100_000, hidden_dim=64, feature_seed=5, init_seed=9)
        cfg = TrainConfig(epochs=1, batch_size=10)
        _, peak = traced_peak(
            lambda: save_ensemble(train_all(block, cb, eng, cfg).ensemble, tmp_path)
        )
        assert peak <= train._training_bytes(block, cb.config, eng, cfg) + 64 * 1024


class TestConfigs:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(epochs=0),
            dict(batch_size=0),
            dict(workers=0),
            dict(lr=0.0),
            dict(lr=-1.0),
            dict(lr=float("nan")),
            dict(lr=float("inf")),
            dict(epochs=True),
            dict(batch_size=2.0),
            dict(shuffle_seed=-1),
            dict(shuffle_seed=2**64),
        ],
    )
    def test_train_config_validation(self, bad):
        base = dict(epochs=1, batch_size=1, lr=1e-3, workers=1)
        base.update(bad)
        with pytest.raises(ValueError):
            TrainConfig(**base)

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(feature_dim=0, hidden_dim=4)
        with pytest.raises(ValueError):
            EngineConfig(feature_dim=4, hidden_dim=4, feature_mode="tfidf")
        # sizes are ints, not bools or floats; seeds are unsigned 64-bit
        for key, value in (
            ("feature_dim", 2**32),
            ("hidden_dim", 4.0),
            ("hidden_dim", True),
            ("feature_seed", -1),
            ("feature_seed", 2**70),
            ("init_seed", 2**64),
        ):
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                EngineConfig(**{"feature_dim": 4, "hidden_dim": 4, key: value})
        EngineConfig(feature_dim=2**32 - 1, hidden_dim=4, feature_seed=2**64 - 1)

    def test_ensemble_requires_one_model_per_chunk(self):
        cb, eng, docs = small_setup(num_chunks=2)
        result = train_all(docs, cb, eng, TrainConfig(epochs=1, batch_size=16))
        with pytest.raises(ValueError):
            ChunkEnsemble(
                code_config=cb.config, engine=eng, models=result.ensemble.models[:1]
            )

    def test_ensemble_checks_model_dims(self):
        cb, eng, docs = small_setup(num_chunks=1)
        result = train_all(docs, cb, eng, TrainConfig(epochs=1, batch_size=16))
        wrong = EngineConfig(feature_dim=eng.feature_dim, hidden_dim=eng.hidden_dim + 1)
        with pytest.raises(ValueError):
            ChunkEnsemble(code_config=cb.config, engine=wrong, models=result.ensemble.models)
