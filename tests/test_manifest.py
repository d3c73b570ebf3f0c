"""Persistence tests: round-trip fidelity, checksums, version gating."""
from __future__ import annotations

import dataclasses
import errno
import hashlib
import itertools
import json
import mmap
import os
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sparsix.manifest
import sparsix.model as model_mod
from conftest import save_untrained, traced_peak
from sparsix.codes import build_codebook
from sparsix.index import build_index
from sparsix.infer import embed_query
from sparsix.manifest import (
    FORMAT_VERSION,
    BlobChecksumError,
    ManifestError,
    _loading_bytes,
    load_ensemble,
    load_manifest,
    load_serving,
    save_ensemble,
)
from sparsix.codes import CodeConfig
from sparsix.model import PARAM_DTYPE, init_model, num_params
from sparsix.train import ChunkEnsemble, EngineConfig


@pytest.fixture
def saved_engine(tiny_engine, tmp_path):
    path = save_ensemble(tiny_engine.ensemble, tmp_path / "engine", tiny_engine.train_config)
    return tiny_engine, path


class TestRoundTrip:
    def test_forward_outputs_bit_identical(self, saved_engine):
        """The reloaded engine computes the exact same probabilities."""
        engine, path = saved_engine
        loaded, _ = load_ensemble(path)
        b = engine.cb.config.buckets_per_chunk
        for doc in engine.test_docs[:20]:
            before = embed_query(engine.ensemble, doc, b).probs
            after = embed_query(loaded, doc, b).probs
            assert np.array_equal(before, after)

    def test_configs_survive(self, saved_engine):
        engine, path = saved_engine
        loaded, manifest = load_ensemble(path)
        assert loaded.code_config == engine.cb.config
        assert loaded.engine == engine.ensemble.engine
        assert manifest.train_config == engine.train_config
        assert manifest.format_version == FORMAT_VERSION

    def test_parameters_bitwise_equal(self, saved_engine):
        engine, path = saved_engine
        loaded, _ = load_ensemble(path)
        for before, after in zip(engine.ensemble.models, loaded.models):
            for p, q in zip(before.params(), after.params()):
                assert np.array_equal(p, q)

    def test_save_twice_loads_identically(self, saved_engine, tmp_path):
        engine, path = saved_engine
        path2 = save_ensemble(engine.ensemble, tmp_path / "again", engine.train_config)
        a, _ = load_ensemble(path)
        b, _ = load_ensemble(path2)
        for p, q in zip(a.models, b.models):
            for x, y in zip(p.params(), q.params()):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("loader", ["load_ensemble", "load_serving"])
    def test_saving_over_a_loaded_engine_leaves_it_as_it_was(self, tmp_path, loader):
        """Saving another engine of the same dims into a loaded engine's directory
        gives each blob a new file: the loaded engine keeps serving its own bits."""
        path = save_untrained(tmp_path / "e", 3, f=64, h=6, b=8, n=40)
        loaded = LOADERS[loader](path)
        before = [[p.tobytes() for p in m.params()] for m in loaded.models]
        engine = EngineConfig(64, 6, feature_seed=3, init_seed=5)
        other = [
            init_model(64, 6, 8, engine.chunk_init_seed(c), c, dtype=PARAM_DTYPE) for c in range(3)
        ]
        save_ensemble(ChunkEnsemble(CodeConfig(40, 3, 8, base_seed=5), engine, other), path.parent)
        assert [[p.tobytes() for p in m.params()] for m in loaded.models] == before
        reloaded = LOADERS[loader](path)
        for mine, theirs in zip(reloaded.models, other, strict=True):
            assert [p.tobytes() for p in mine.params()] == [p.tobytes() for p in theirs.params()]
        assert sorted(f.name for f in path.parent.iterdir()) == [
            "chunk_0000.bin", "chunk_0001.bin", "chunk_0002.bin", "manifest.json"
        ]

    def test_train_config_optional(self, tiny_engine, tmp_path):
        path = save_ensemble(tiny_engine.ensemble, tmp_path / "nocfg")
        _, manifest = load_ensemble(path)
        assert manifest.train_config is None


class TestChecksums:
    def test_clean_blobs_verify(self, saved_engine):
        _, path = saved_engine
        load_ensemble(path)  # must not raise

    def test_corrupted_blob_detected(self, saved_engine):
        _, path = saved_engine
        blob = path.parent / "chunk_0001.bin"
        raw = bytearray(blob.read_bytes())
        raw[-1] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(BlobChecksumError, match="mismatch"):
            load_ensemble(path)

    def test_empty_blob_fails_its_checksum(self, saved_engine):
        """A zero-byte blob, which cannot be mapped, fails as any other wrong bytes do."""
        _, path = saved_engine
        blob = path.parent / "chunk_0001.bin"
        recorded = json.loads(path.read_text())["blobs"][1]["sha256"]
        blob.write_bytes(b"")
        empty = hashlib.sha256(b"").hexdigest()
        message = (
            f"checksum mismatch for {blob}: manifest says {recorded[:12]}…, file is {empty[:12]}…"
        )
        with pytest.raises(BlobChecksumError, match=f"^{re.escape(message)}$"):
            load_ensemble(path)

    def test_missing_blob_detected(self, saved_engine):
        _, path = saved_engine
        (path.parent / "chunk_0002.bin").unlink()
        with pytest.raises(BlobChecksumError, match="missing"):
            load_ensemble(path)

    def test_manifest_alone_loads_without_blob_io(self, saved_engine):
        _, path = saved_engine
        (path.parent / "chunk_0000.bin").unlink()
        manifest = load_manifest(path)  # metadata-only read still works
        assert len(manifest.blobs) == manifest.code_config.num_chunks


class TestValidation:
    def edit_manifest(self, path, mutate):
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))

    def test_version_gate(self, saved_engine):
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(ManifestError, match="version"):
            load_manifest(path)
        self.edit_manifest(path, lambda d: d.update(format_version="1"))
        with pytest.raises(ManifestError, match="unsupported manifest version '1'"):
            load_manifest(path)

    def test_blob_list_must_cover_chunks(self, saved_engine):
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d["blobs"].pop())
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_blob_order_enforced(self, saved_engine):
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d["blobs"].reverse())
        with pytest.raises(ManifestError, match="order"):
            load_manifest(path)

    def test_garbage_json_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError, match="unreadable"):
            load_manifest(p)

    def test_non_utf8_byte_is_unreadable(self, saved_engine):
        _, path = saved_engine
        path.write_bytes(path.read_bytes().replace(b'"created_at": "', b'"created_at": "\xff', 1))
        with pytest.raises(ManifestError, match=f"^unreadable manifest {re.escape(str(path))}: "):
            load_manifest(path)

    def test_missing_field_rejected(self, saved_engine):
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d.pop("engine"))
        with pytest.raises(ManifestError, match="malformed"):
            load_manifest(path)

    @pytest.mark.parametrize("value", [{}, [], 0, "", False, [["epochs", 3]]])
    def test_train_config_other_than_an_object_or_null_rejected(self, saved_engine, value):
        """Only JSON null means no train config: an empty or falsy value, or a
        list of key-value pairs, is a malformed manifest."""
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d.update(train_config=value))
        with pytest.raises(ManifestError, match="^malformed manifest"):
            load_manifest(path)

    def test_null_train_config_is_absent(self, saved_engine):
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d.update(train_config=None))
        assert load_manifest(path).train_config is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sha256", 5),
            ("sha256", "AB" * 32),
            ("sha256", "ab" * 31),
            ("path", "/etc/passwd"),
            ("path", "../chunk_0000.bin"),
            ("path", "sub/../../chunk_0000.bin"),
            ("path", ""),
            ("path", 7),
            ("chunk", "0"),
            ("chunk", False),
        ],
    )
    def test_bad_blob_field_named(self, saved_engine, field, value):
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d["blobs"][0].update({field: value}))
        with pytest.raises(ManifestError, match=f"{field} must be"):
            load_manifest(path)

    def test_blob_path_may_name_a_subdirectory(self, saved_engine):
        _, path = saved_engine
        (path.parent / "blobs").mkdir()
        (path.parent / "chunk_0000.bin").rename(path.parent / "blobs" / "chunk_0000.bin")
        self.edit_manifest(path, lambda d: d["blobs"][0].update(path="./blobs/chunk_0000.bin"))
        load_ensemble(path)

    def test_blob_chunk_id_cross_checked(self, saved_engine):
        """Swapped blob files are caught even though checksums still match."""
        _, path = saved_engine
        base = path.parent
        a = (base / "chunk_0000.bin").read_bytes()
        b = (base / "chunk_0001.bin").read_bytes()
        (base / "chunk_0000.bin").write_bytes(b)
        (base / "chunk_0001.bin").write_bytes(a)

        def swap(d):
            d["blobs"][0]["sha256"], d["blobs"][1]["sha256"] = (
                d["blobs"][1]["sha256"],
                d["blobs"][0]["sha256"],
            )

        self.edit_manifest(path, swap)
        with pytest.raises(ManifestError, match="holds chunk"):
            load_ensemble(path)


    def test_blob_init_seed_cross_checked(self, saved_engine):
        """A header seed rewritten with its checksum is caught, naming the blob."""
        engine, path = saved_engine
        blob = path.parent / "chunk_0001.bin"
        raw = blob.read_bytes()
        seed = engine.ensemble.engine.chunk_init_seed(1)
        assert int.from_bytes(raw[16:24], "little") == seed
        edited = raw[:16] + (seed ^ 1).to_bytes(8, "little") + raw[24:]
        blob.write_bytes(edited)
        digest = hashlib.sha256(edited).hexdigest()
        self.edit_manifest(path, lambda d: d["blobs"][1].update(sha256=digest))
        with pytest.raises(ManifestError, match=f"blob chunk_0001.bin records init_seed {seed ^ 1}"):
            load_ensemble(path)

    def test_engine_init_seed_cross_checked(self, saved_engine):
        _, path = saved_engine
        self.edit_manifest(path, lambda d: d["engine"].update(init_seed=d["engine"]["init_seed"] + 1))
        with pytest.raises(ManifestError, match="blob chunk_0000.bin records init_seed"):
            load_ensemble(path)


class TestMemoryCheck:
    def test_engine_over_memory_fails_before_reading_a_blob(self, saved_engine, monkeypatch):
        _, path = saved_engine
        need = _loading_bytes(load_manifest(path))
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: need - 1)
        monkeypatch.setattr(sparsix.manifest, "load_model", pytest.fail)
        with pytest.raises(ValueError, match="needs about .* GiB but this machine has"):
            load_ensemble(path)

    def test_estimate_is_k_models_without_w1_and_serving_tables(
        self, saved_engine, monkeypatch
    ):
        """K = 4, H = 24, B = 32 float32 models without W1, which is mapped
        rather than held, loading's Python objects (32 KiB and 2 KiB a chunk),
        then for N = 60 the int32 codebook, the index (uint32 labels, int64
        offsets per chunk), a block of 992 queries (4 MiB over 33·K·B = 4,224
        bytes a row): ``forward``'s float64 copy of W2 beside one row's float64
        h and the block's float64 z, and the block's probabilities and top-m
        scratch, 33·K·B bytes a row; and one query at m = B, whose scoring (N
        int64 candidates, an (N, K) int32 code gather, N int64 indexes, N
        float64 scores and one gathered row: 2,880 bytes) outgrows its union
        (1,920 bytes).  The estimate does not grow with F."""
        _, path = saved_engine
        rows = 992
        embedding = 8 * (32 * 24 + 24 + rows * 32) + 33 * 4 * 32 * rows
        serving = 4 * 60 * 4 + 4 * (4 * 60 + 8 * 33) + embedding + (4 * 4 * 60 + 32 * 60)
        objects = 32 * 1024 + 4 * 2 * 1024
        models = 4 * 4 * num_params(0, 24, 32)
        manifest = load_manifest(path)
        assert manifest.engine.feature_dim == 512
        assert _loading_bytes(manifest) == models + serving + objects
        wide = dataclasses.replace(manifest.engine, feature_dim=2**32 - 1)
        assert _loading_bytes(dataclasses.replace(manifest, engine=wide)) == _loading_bytes(manifest)
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: _loading_bytes(manifest))
        loaded, _ = load_ensemble(path)
        assert {p.dtype for m in loaded.models for p in m.params()} == {np.dtype(np.float32)}

    def test_load_holds_no_w1_on_the_heap(self, tmp_path):
        """At F = 100,000, H = 16 each W1 is 6.4 MB, and none of it is on the heap:
        loading's traced peak is that of the same engine at F = 64, within
        interpreter overhead, and within the estimate."""
        peaks = []
        for f in (64, 100_000):
            path = save_untrained(tmp_path / f"f{f}", 3, f, h=16, b=32, n=50)
            (loaded, manifest), peak = traced_peak(lambda: load_ensemble(path))
            assert peak <= _loading_bytes(manifest)
            peaks.append(peak)
            for m in loaded.models:
                assert all(p.flags.c_contiguous and p.dtype.isnative for p in m.params())
                assert not m.W1.flags.writeable
                assert all(p.flags.writeable for p in (m.b1, m.W2, m.b2))
        assert peaks[1] < peaks[0] + 64 * 1024

    def test_save_builds_one_blob_at_a_time(self, tmp_path):
        """A blob is released before the next is built, and building one copies each
        array straight into it: the traced peak is one blob, where it was three."""
        k, f, h, b = 3, 100_000, 16, 32
        engine = EngineConfig(f, h)
        models = [
            init_model(f, h, b, engine.chunk_init_seed(c), c, dtype=PARAM_DTYPE)
            for c in range(k)
        ]
        ensemble = ChunkEnsemble(CodeConfig(50, k, b, base_seed=1), engine, models)
        _, peak = traced_peak(lambda: save_ensemble(ensemble, tmp_path / "wide"))
        assert peak < PARAM_DTYPE.itemsize * num_params(f, h, b) + 64 * 1024


def rewrite_blob(path, chunk, edit):
    """Replace chunk ``chunk``'s blob bytes by ``edit(bytes)``; the manifest keeps its checksum."""
    blob = path.parent / f"chunk_{chunk:04d}.bin"
    blob.write_bytes(edit(blob.read_bytes()))
    return blob


def rewrite_header(path, chunk, at, value):
    """Rewrite a little-endian header field and record the blob's new checksum."""
    blob = rewrite_blob(path, chunk, lambda raw: raw[:at] + value + raw[at + len(value) :])
    doc = json.loads(path.read_text())
    doc["blobs"][chunk]["sha256"] = hashlib.sha256(blob.read_bytes()).hexdigest()
    path.write_text(json.dumps(doc))


def other_dims_blob(path, c):
    """Copy in chunk ``c``'s blob from an engine of another F with the same seeds, and
    record its checksum: its size, chunk and init seed all check, its dims do not."""
    k = len(json.loads(path.read_text())["blobs"])
    other = save_untrained(path.parent.parent / "other-f", k, f=32, h=6, b=8, n=40)
    data = (other.parent / f"chunk_{c:04d}.bin").read_bytes()
    rewrite_blob(path, c, lambda raw: data)
    doc = json.loads(path.read_text())
    doc["blobs"][c]["sha256"] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(doc))


# Each blob fault load_ensemble names, applied to one chunk of a saved engine
BLOB_FAULTS = {
    "missing": lambda path, c: (path.parent / f"chunk_{c:04d}.bin").unlink(),
    "checksum": lambda path, c: rewrite_blob(path, c, lambda raw: raw[:-1] + bytes([raw[-1] ^ 1])),
    "chunk": lambda path, c: rewrite_header(path, c, 0, (c + 1).to_bytes(4, "little")),
    "init_seed": lambda path, c: rewrite_header(path, c, 16, (7).to_bytes(8, "little")),
    "dims": other_dims_blob,
    "empty": lambda path, c: rewrite_blob(path, c, lambda raw: b""),
}


def blames(message, c):
    """Whether a blob error names chunk ``c``: by its file, or, for its dims, by its id."""
    return f"chunk_{c:04d}.bin" in message or message.startswith(f"chunk {c}: ")


# Each loader's ensemble, by name
LOADERS = {
    "load_ensemble": lambda path: load_ensemble(path)[0],
    "load_serving": lambda path: load_serving(path, index=True)[0],
}


def buffer_owner(a):
    """The object whose buffer ``a`` views, past its chain of bases and memoryviews."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.obj if isinstance(a, memoryview) else a.base
    return a


def open_descriptors():
    """How many file descriptors this process has open."""
    return len(os.listdir("/proc/self/fd"))


def raised(fn):
    """The exception ``fn()`` raises, as its type and message."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestLoadServing:
    """``load_serving`` loads the blobs on a helper thread while it builds the
    tables, and gives what the serial calls give."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bit_identical_to_the_serial_calls(self, tmp_path, k):
        path = save_untrained(tmp_path / "e", k, f=64, h=6, b=8, n=40)
        threads = threading.active_count()
        ensemble, cb, idx = load_serving(path, index=True)
        serial, manifest = load_ensemble(path)
        serial_cb = build_codebook(serial.code_config)
        serial_idx = build_index(serial_cb)
        assert threading.active_count() == threads
        assert (ensemble.code_config, ensemble.engine) == (manifest.code_config, manifest.engine)
        assert [m.chunk for m in ensemble.models] == list(range(k))
        for mine, theirs in zip(ensemble.models, serial.models, strict=True):
            assert mine.init_seed == theirs.init_seed
            for p, q in zip(mine.params(), theirs.params(), strict=True):
                assert p.dtype == q.dtype and p.tobytes() == q.tobytes()
        assert cb.config == serial_cb.config and cb.codes.tobytes() == serial_cb.codes.tobytes()
        for name in ("offsets", "labels"):
            mine, theirs = getattr(idx, name), getattr(serial_idx, name)
            assert [(t.dtype, t.tobytes()) for t in mine] == [(t.dtype, t.tobytes()) for t in theirs]

    def test_every_chunk_loaded_once_under_fast_thread_switches(self, tmp_path, monkeypatch):
        """Both threads take blobs from one queue: with the interpreter switching threads
        every microsecond, each of 16 chunks is still parsed once, into its own place."""
        path = save_untrained(tmp_path / "e", 16, f=16, h=4, b=4, n=20)
        serial, _ = load_ensemble(path)
        parsed, inner = [], model_mod.load_model

        def counting(data):
            parsed.append(model_mod.blob_header(data)[0])
            return inner(data)

        monkeypatch.setattr(sparsix.manifest, "load_model", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                parsed.clear()
                ensemble, _, _ = load_serving(path, index=True)
                assert sorted(parsed) == list(range(16))
                for mine, theirs in zip(ensemble.models, serial.models, strict=True):
                    assert [p.tobytes() for p in mine.params()] == [
                        p.tobytes() for p in theirs.params()
                    ]
        finally:
            sys.setswitchinterval(interval)

    def test_no_index_asked_builds_none(self, tmp_path, monkeypatch):
        path = save_untrained(tmp_path / "e", 2, f=64, h=6, b=8, n=40)
        monkeypatch.setattr(sparsix.manifest, "build_index", pytest.fail)
        ensemble, cb, idx = load_serving(path, index=False)
        assert idx is None and len(ensemble.models) == 2 and cb.codes.shape == (40, 2)

    @pytest.mark.parametrize("fault", list(BLOB_FAULTS))
    def test_blob_fault_raises_as_the_serial_load(self, tmp_path, fault):
        path = save_untrained(tmp_path / "e", 3, f=64, h=6, b=8, n=40)
        BLOB_FAULTS[fault](path, 1)
        threads = threading.active_count()
        serial = raised(lambda: load_ensemble(path))
        assert raised(lambda: load_serving(path, index=True)) == serial
        assert threading.active_count() == threads
        assert blames(serial[1], 1)

    @pytest.mark.parametrize(
        "first, second", [(a, b) for a in BLOB_FAULTS for b in BLOB_FAULTS if a != b]
    )
    def test_first_bad_blob_in_manifest_order_wins(self, tmp_path, first, second):
        path = save_untrained(tmp_path / "e", 4, f=64, h=6, b=8, n=40)
        BLOB_FAULTS[first](path, 1)
        BLOB_FAULTS[second](path, 2)
        threads = threading.active_count()
        error = raised(lambda: load_serving(path, index=True))
        assert error == raised(lambda: load_ensemble(path))
        assert threading.active_count() == threads
        assert blames(error[1], 1) and not blames(error[1], 2)

    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_other_dims_refused_before_the_copy(self, tmp_path, monkeypatch, loader):
        """A blob of another F fails its own check: nothing of it is copied."""
        path = save_untrained(tmp_path / "e", 3, f=64, h=6, b=8, n=40)
        other_dims_blob(path, 1)
        copied, inner = [], model_mod.load_model

        def recording(data):
            copied.append(model_mod.blob_header(data)[0])
            return inner(data)

        monkeypatch.setattr(sparsix.manifest, "load_model", recording)
        with pytest.raises(ValueError, match="^chunk 1: model dims disagree with config$"):
            LOADERS[loader](path)
        assert 1 not in copied

    @pytest.mark.parametrize("fault", list(BLOB_FAULTS))
    def test_bad_last_blob_raises_as_the_serial_load(self, tmp_path, fault):
        """Chunk K - 1's blob, which the calling thread may be the one to read."""
        path = save_untrained(tmp_path / "e", 3, f=64, h=6, b=8, n=40)
        BLOB_FAULTS[fault](path, 2)
        threads = threading.active_count()
        error = raised(lambda: load_serving(path, index=True))
        assert error == raised(lambda: load_ensemble(path))
        assert threading.active_count() == threads
        assert blames(error[1], 2)

    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_every_w1_is_a_read_only_view_of_its_blob(self, tmp_path, loader):
        """Both loaders give each model's W1 as a read-only, C-contiguous (F, H) view
        of its own blob's map, past the header, and every model holds the
        parameters it was saved with, bit for bit."""
        k, f, h, b = 3, 64, 6, 8
        path = save_untrained(tmp_path / "e", k, f, h, b, n=40)
        ensemble = LOADERS[loader](path)
        engine, maps = ensemble.engine, []
        for c, model in enumerate(ensemble.models):
            W1 = model.W1
            assert W1.shape == (f, h) and W1.dtype == PARAM_DTYPE
            assert W1.flags.c_contiguous and not W1.flags.writeable
            owner = buffer_owner(W1)
            assert isinstance(owner, mmap.mmap)
            assert owner[:] == (path.parent / f"chunk_{c:04d}.bin").read_bytes()
            assert W1.ctypes.data == np.frombuffer(owner, np.uint8).ctypes.data + 24
            maps.append(owner)
            saved = init_model(f, h, b, engine.chunk_init_seed(c), c, dtype=PARAM_DTYPE)
            for p, q in zip(model.params(), saved.params(), strict=True):
                assert p.dtype == q.dtype and p.tobytes() == q.tobytes()
        assert len({id(m) for m in maps}) == k

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("fault", [None, "checksum", "dims"])
    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_dropping_an_engine_closes_its_descriptors(self, tmp_path, loader, fault):
        """A loaded engine holds one descriptor a blob, CPython's mmap's own, until it
        is dropped; a failed load holds none once it has raised."""
        k = 3
        path = save_untrained(tmp_path / "e", k, f=64, h=6, b=8, n=40)
        if fault:
            BLOB_FAULTS[fault](path, 2)
        before = open_descriptors()
        if fault:
            raised(lambda: LOADERS[loader](path))
        else:
            ensemble = LOADERS[loader](path)
            assert open_descriptors() == before + k
            del ensemble
        assert open_descriptors() == before

    @pytest.mark.parametrize("limit, m", [(-1, None), (0, 9)])
    def test_refused_before_any_blob_or_table(self, tmp_path, monkeypatch, limit, m):
        """An engine over memory, or an m above B = 8, reads no blob and builds nothing."""
        path = save_untrained(tmp_path / "e", 2, f=64, h=6, b=8, n=40)
        need = _loading_bytes(load_manifest(path))
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: need + limit)
        monkeypatch.setattr(sparsix.manifest, "_load_blob", pytest.fail)
        monkeypatch.setattr(sparsix.manifest, "build_codebook", pytest.fail)
        threads = threading.active_count()
        message = "m must be in \\[1, 8\\], got 9" if m else "GiB but this machine has"
        with pytest.raises(ValueError, match=message):
            load_serving(path, index=True, m=m)
        assert threading.active_count() == threads

    def test_m_up_to_b_is_served(self, tmp_path):
        path = save_untrained(tmp_path / "e", 2, f=64, h=6, b=8, n=40)
        load_serving(path, index=True, m=8)

    @pytest.mark.parametrize(
        "k, f, h, b, n",
        [(4, 100_000, 16, 32, 50), (4, 512, 16, 256, 300_000)],
        ids=["wide-F-small-N", "large-N"],
    )
    def test_traced_peak_within_the_estimate(self, tmp_path, k, f, h, b, n):
        """Two shapes: K models without W1 dominate the first, the codebook and index
        the second.  Each peak lies between what must be held and the estimate, and
        is that of the same engine at F = 64, within interpreter overhead."""
        peaks = []
        for dim in (64, f):
            path = save_untrained(tmp_path / f"f{dim}", k, dim, h, b, n)
            manifest = load_manifest(path)
            _, peak = traced_peak(lambda: load_serving(path, index=True))
            models = PARAM_DTYPE.itemsize * k * num_params(0, h, b)
            tables = 4 * n * k + k * (4 * n + 8 * (b + 1))
            assert max(models, tables) <= peak <= _loading_bytes(manifest)
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 64 * 1024

    def test_two_blobs_in_flight_stay_within_the_estimate(self, tmp_path, monkeypatch):
        """At K 3, the first two blobs are held back until both threads hold one.  The
        traced peak stays within the estimate, and is that of the same engine at
        F = 64, within interpreter overhead: the blobs in flight are maps."""
        k, h, b = 3, 16, 32
        inner, peaks = model_mod.load_model, []
        for f in (64, 100_000):
            path = save_untrained(tmp_path / f"f{f}", k, f, h, b, n=50)
            manifest = load_manifest(path)
            both, calls = threading.Barrier(2, timeout=20), itertools.count()

            def in_pairs(data):
                if next(calls) < 2:
                    both.wait()  # fails, broken, unless two threads each bring a blob
                return inner(data)

            monkeypatch.setattr(sparsix.manifest, "load_model", in_pairs)
            threads = threading.active_count()
            _, peak = traced_peak(lambda: load_serving(path, index=True))
            assert threading.active_count() == threads
            assert peak <= _loading_bytes(manifest)
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 64 * 1024


class TestOlderManifests:
    """Manifests written while Adam's constants were settings recorded them; every
    such manifest has version 1, which this build refuses (``tests/test_cli.py``)."""

    def test_fresh_manifest_omits_adam_keys(self, saved_engine):
        _, path = saved_engine
        recorded = json.loads(path.read_text())["train_config"]
        assert not {"beta1", "beta2", "adam_eps"} & recorded.keys()


class _FullDisk:
    """A file that takes half of the first write, then fails as a full disk does."""

    def __init__(self, file):
        self._file = file

    def write(self, data):
        self._file.write(data[: len(data) // 2])
        self._file.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()


class TestReplacedWhole:
    def test_failed_manifest_write_keeps_the_old_manifest(self, saved_engine, monkeypatch):
        """A save whose manifest.json write fails part-way leaves the directory as it
        was: the old manifest byte for byte, and no hidden sibling beside it."""
        engine, path = saved_engine
        before = {f.name: f.read_bytes() for f in path.parent.iterdir()}
        real_open = Path.open

        def open_full_disk(self, mode="r", *args, **kwargs):
            file = real_open(self, mode, *args, **kwargs)
            if "manifest.json" in self.name and "r" not in mode:
                return _FullDisk(file)
            return file

        monkeypatch.setattr(Path, "open", open_full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_ensemble(engine.ensemble, path.parent, engine.train_config)
        monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in path.parent.iterdir()} == before
        load_ensemble(path)
