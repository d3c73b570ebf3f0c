"""Feature hashing tests: conservation, collisions, and seed independence."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsix.features import (
    Document,
    HashedFeatures,
    hash_features,
    hash_token_ids,
    make_document,
)
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


    @pytest.mark.parametrize(
        "ids,counts,labels,message",
        [
            ([1, 2], [1], [], "token ids and counts must align"),
            ([9, 4, 9], [1, 1, 1], [], "doc 5: duplicate token ids"),
            ([3, 3], [2, 2], [], "doc 5: duplicate token ids"),
            ([4, 9], [1, 0], [], "doc 5: token counts must be >= 1"),
            ([4], [-3], [], "doc 5: token counts must be >= 1"),
            ([4], [1], [2, 2], "doc 5: labels must be strictly increasing"),
            ([], [], [3, 1], "doc 5: labels must be strictly increasing"),
        ],
    )
    def test_bad_input_messages(self, ids, counts, labels, message):
        with pytest.raises(ValueError) as err:
            Document(
                5,
                np.array(ids, dtype=np.uint64),
                np.array(counts, dtype=np.int64),
                np.array(labels, dtype=np.int64),
            )
        assert str(err.value) == message


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


def hash_features_reference(doc, chunk_seed, feature_dim, mode):
    """The np.unique + np.add.at form that hash_features must match bit for bit."""
    hashed = hash_token_ids(doc.token_ids, chunk_seed, feature_dim)
    indexes, inverse = np.unique(hashed, return_inverse=True)
    values = np.zeros(indexes.size, dtype=np.float64)
    np.add.at(values, inverse, doc.token_counts.astype(np.float64))
    if mode == "binary":
        values = np.minimum(values, 1.0)
    return indexes, values


class TestMatchesUniqueReference:
    @pytest.mark.parametrize("mode", ["counts", "binary"])
    @pytest.mark.parametrize("feature_dim", [3, 4, 5, 7, 1 << 13])
    def test_bit_identical(self, mode, feature_dim):
        """Small dims force collisions, including runs of three or more tokens."""
        rng = np.random.default_rng(feature_dim)
        collided = 0
        for trial in range(60):
            n = int(rng.integers(0, 12)) if trial else 0
            ids = rng.choice(2**40, size=n, replace=False)
            counts = rng.integers(1, 2**20, size=n)
            doc = make_document(trial, list(zip(ids.tolist(), counts.tolist())), [])
            seed = int(rng.integers(0, 2**63))
            feats = hash_features(doc, seed, feature_dim, mode)
            indexes, values = hash_features_reference(doc, seed, feature_dim, mode)
            assert feats.indexes.dtype == indexes.dtype == np.int64
            assert feats.indexes.tobytes() == indexes.tobytes()
            assert feats.values.dtype == values.dtype == np.float64
            assert feats.values.tobytes() == values.tobytes()
            collided += indexes.size < n
        if feature_dim < 8:
            assert collided > 10


class TestHashedFeaturesChecks:
    @pytest.mark.parametrize(
        "indexes,values,message",
        [
            ([1, 1], [1.0, 1.0], "feature indexes must be strictly increasing"),
            ([3, 2], [1.0, 1.0], "feature indexes must be strictly increasing"),
            ([-1, 2], [1.0, 1.0], "feature index out of range"),
            ([0, 8], [1.0, 1.0], "feature index out of range"),
            ([0, 2], [1.0, np.nan], "feature values must be finite"),
            ([], [np.inf], "feature values must be finite"),
        ],
    )
    def test_bad_input_messages(self, indexes, values, message):
        with pytest.raises(ValueError) as err:
            HashedFeatures(8, np.array(indexes, dtype=np.int64), np.array(values))
        assert str(err.value) == message

    def test_valid_input_accepted(self):
        HashedFeatures(8, np.array([0, 7], dtype=np.int64), np.array([1.0, 2.0]))
        HashedFeatures(8, np.empty(0, dtype=np.int64), np.empty(0))


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
