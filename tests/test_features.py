"""Feature hashing tests: conservation, collisions, and seed independence."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsix.features import hash_features, hash_token_ids, make_document
from sparsix.hashing import derive_seed, murmur3_32
from sparsix.train import EngineConfig


class TestDocument:
    def test_make_document(self):
        doc = make_document(3, [(10, 2), (4, 1)], [7, 2])
        assert doc.doc_id == 3
        assert doc.token_ids.tolist() == [10, 4]
        assert doc.token_counts.tolist() == [2, 1]
        assert doc.labels.tolist() == [2, 7]
        assert doc.num_tokens == 2

    def test_rejects_duplicate_tokens(self):
        with pytest.raises(ValueError):
            make_document(0, [(5, 1), (5, 2)], [0])

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            make_document(0, [(5, 0)], [0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            make_document(0, [(5, 1)], [2, 2])

    def test_empty_document_allowed(self):
        doc = make_document(0, [], [])
        assert doc.num_tokens == 0 and doc.labels.size == 0


class TestHashFeatures:
    def test_empty_document(self):
        doc = make_document(0, [], [])
        feats = hash_features(doc, chunk_seed=1, feature_dim=16, mode="counts")
        assert feats.indexes.size == 0 and feats.values.size == 0
        assert feats.dim == 16

    def test_single_bucket_counts_vs_binary(self):
        doc = make_document(0, [(5, 2)], [])
        counts = hash_features(doc, 1, 1, "counts")
        binary = hash_features(doc, 1, 1, "binary")
        assert counts.indexes.tolist() == [0] and counts.values.tolist() == [2.0]
        assert binary.indexes.tolist() == [0] and binary.values.tolist() == [1.0]

    def test_collision_accumulates(self):
        # find two tokens that land in the same slot at F=4
        seed, f = 7, 4
        slots = {}
        pair = None
        for token in range(1000):
            s = murmur3_32(int(token).to_bytes(8, "little"), seed & 0xFFFFFFFF) % f
            if s in slots:
                pair = (slots[s], token)
                break
            slots[s] = token
        assert pair is not None
        doc = make_document(0, [(pair[0], 1), (pair[1], 1)], [])
        counts = hash_features(doc, seed, f, "counts")
        binary = hash_features(doc, seed, f, "binary")
        assert counts.values.max() == 2.0
        assert binary.values.max() == 1.0

    def test_indexes_sorted_and_in_range(self):
        doc = make_document(0, [(t, 1) for t in range(50)], [])
        feats = hash_features(doc, 3, 16, "counts")
        assert np.all(np.diff(feats.indexes) > 0)
        assert feats.indexes.min() >= 0 and feats.indexes.max() < 16

    def test_deterministic(self):
        doc = make_document(0, [(t, t + 1) for t in range(20)], [])
        a = hash_features(doc, 9, 32, "counts")
        b = hash_features(doc, 9, 32, "counts")
        assert np.array_equal(a.indexes, b.indexes)
        assert np.array_equal(a.values, b.values)

    @settings(max_examples=100, deadline=None)
    @given(
        tokens=st.dictionaries(
            st.integers(min_value=0, max_value=2**32),
            st.integers(min_value=1, max_value=5),
            max_size=30,
        ),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        f=st.integers(min_value=1, max_value=64),
    )
    def test_counts_conserved(self, tokens, seed, f):
        """Property: hashing moves counts between slots but never loses any."""
        doc = make_document(0, list(tokens.items()), [])
        feats = hash_features(doc, seed, f, "counts")
        assert feats.values.sum() == sum(tokens.values())

    def test_matches_token_id_map(self):
        doc = make_document(0, [(t * 7, 1) for t in range(15)], [])
        feats = hash_features(doc, 11, 32, "counts")
        raw = hash_token_ids(doc.token_ids, 11, 32)
        dense = np.zeros(32)
        np.add.at(dense, raw, doc.token_counts.astype(np.float64))
        rebuilt = np.zeros(32)
        rebuilt[feats.indexes] = feats.values
        assert np.array_equal(dense, rebuilt)

    def test_rejects_zero_dim(self):
        doc = make_document(0, [(1, 1)], [])
        with pytest.raises(ValueError):
            hash_features(doc, 1, 0, "counts")


def engine(feature_seed: int) -> EngineConfig:
    return EngineConfig(feature_dim=8, hidden_dim=2, feature_seed=feature_seed)


class TestChunkSeeds:
    def test_identical_to_shared_derivation(self):
        for base in (0, 42, 2**63):
            for chunk in range(5):
                assert engine(base).chunk_feature_seed(chunk) == derive_seed(base, chunk)

    def test_distinct_across_chunks(self):
        for base in range(10**4):
            eng = engine(base)
            assert eng.chunk_feature_seed(0) != eng.chunk_feature_seed(1)

    def test_seed_changes_collision_pattern(self):
        """Different chunks disagree on most token placements."""
        f = 100
        tokens = np.arange(1000, dtype=np.uint64)
        map0 = hash_token_ids(tokens, engine(0).chunk_feature_seed(0), f)
        map1 = hash_token_ids(tokens, engine(0).chunk_feature_seed(1), f)
        assert (map0 != map1).mean() >= 0.90
