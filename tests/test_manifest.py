"""Persistence tests: round-trip fidelity, checksums, version gating."""
from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

import sparsix.manifest
import sparsix.model as model_mod
from conftest import traced_peak
from sparsix.infer import InferParams, embed_query, predict
from sparsix.manifest import (
    FORMAT_VERSION,
    BlobChecksumError,
    ManifestError,
    _loading_bytes,
    load_ensemble,
    load_manifest,
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

    def test_estimate_is_k_models_plus_one_blob_and_serving_tables(
        self, saved_engine, monkeypatch
    ):
        """K = 4, F = 512, H = 24, B = 32 float32 models and one blob, then for
        N = 60 the int32 codebook, the index (uint32 labels, int64 offsets per
        chunk), ``forward``'s float64 copy of W2 beside its float64 h and z, and
        one query at m = B, whose scoring (N int64 candidates, an (N, K) int32
        code gather, N int64 indexes, N float64 scores and one gathered row:
        2,880 bytes) outgrows its union (1,920 bytes)."""
        _, path = saved_engine
        forward = 8 * (32 * 24 + 24 + 32)
        serving = 4 * 60 * 4 + 4 * (4 * 60 + 8 * 33) + forward + (4 * 4 * 60 + 32 * 60)
        assert _loading_bytes(load_manifest(path)) == 4 * 5 * num_params(512, 24, 32) + serving
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: _loading_bytes(load_manifest(path)))
        loaded, _ = load_ensemble(path)
        assert {p.dtype for m in loaded.models for p in m.params()} == {np.dtype(np.float32)}

    def test_load_holds_k_models_and_one_blob(self, tmp_path):
        """At F = 100000, H = 16 a second copy of W1 would add 6.4 MB; the traced
        peak stays within interpreter overhead of K models plus one blob."""
        k, f, h, b = 3, 100_000, 16, 32
        engine = EngineConfig(f, h)
        models = [
            init_model(f, h, b, engine.chunk_init_seed(c), c, dtype=PARAM_DTYPE)
            for c in range(k)
        ]
        ensemble = ChunkEnsemble(CodeConfig(50, k, b, base_seed=1), engine, models)
        path = save_ensemble(ensemble, tmp_path / "wide")
        del ensemble, models
        (loaded, manifest), peak = traced_peak(lambda: load_ensemble(path))
        models_and_blob = PARAM_DTYPE.itemsize * (k + 1) * num_params(f, h, b)
        assert models_and_blob <= peak < models_and_blob + 64 * 1024
        assert models_and_blob < _loading_bytes(manifest)
        for p in loaded.models[0].params():
            assert p.flags.c_contiguous and p.flags.writeable and p.dtype.isnative

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


class TestOlderManifests:
    """Manifests written while Adam's constants were settings record them."""

    def with_adam_keys(self, path, beta1=0.9):
        doc = json.loads(path.read_text())
        doc["train_config"].update(beta1=beta1, beta2=0.999, adam_eps=1e-08)
        path.write_text(json.dumps(doc))

    def test_fresh_manifest_omits_adam_keys(self, saved_engine):
        _, path = saved_engine
        recorded = json.loads(path.read_text())["train_config"]
        assert not {"beta1", "beta2", "adam_eps"} & recorded.keys()

    def test_standard_values_load_and_predict_identically(self, saved_engine):
        engine, path = saved_engine
        fresh, fresh_manifest = load_ensemble(path)
        self.with_adam_keys(path)
        older, older_manifest = load_ensemble(path)
        assert older_manifest.train_config == fresh_manifest.train_config
        params = InferParams(m=4, top_k=10)
        for doc in engine.test_docs[:20]:
            a = predict(fresh, engine.cb, engine.idx, doc, params)
            b = predict(older, engine.cb, engine.idx, doc, params)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.scores, b.scores)

    def test_other_value_rejected(self, saved_engine):
        _, path = saved_engine
        self.with_adam_keys(path, beta1=0.8)
        with pytest.raises(ManifestError, match="beta1"):
            load_manifest(path)
