"""Feature hashing tests: conservation, collisions, seed independence, and the row merge."""
from __future__ import annotations

import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsix.features import (
    DocBlock,
    Document,
    HashedFeatures,
    hash_features,
    hash_token_ids,
    make_document,
    merge_rows,
    row_offsets,
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
        assert type(doc) is Document and doc.block.token_offsets.tolist() == [0, 2]

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
        assert doc.token_ids.size == 0 and doc.labels.size == 0

    @pytest.mark.parametrize(
        "ids,counts,labels,message",
        [
            ([-1], [1], [1], "doc 5: token ids must be >= 0"),
            ([9, 4, 9], [1, 1, 1], [], "doc 5: duplicate token ids"),
            ([3, 3], [2, 2], [], "doc 5: duplicate token ids"),
            ([4, 9], [1, 0], [], "doc 5: token counts must be >= 1"),
            ([4], [-3], [], "doc 5: token counts must be >= 1"),
            ([4], [1], [2, 2], "doc 5: labels must be strictly increasing"),
            ([], [], [3, 1, 3], "doc 5: labels must be strictly increasing"),
            # checked before the cast, where NumPy would raise OverflowError naming no doc
            ([2**64], [1], [1], "doc 5: id or count exceeds the 64-bit range"),
            ([1], [2**63], [1], "doc 5: id or count exceeds the 64-bit range"),
            ([1], [1], [2**63], "doc 5: id or count exceeds the 64-bit range"),
        ],
    )
    def test_bad_input_messages(self, ids, counts, labels, message):
        with pytest.raises(ValueError) as err:
            make_document(5, list(zip(ids, counts, strict=True)), labels)
        assert str(err.value) == message

    def test_takes_the_edges_of_the_64_bit_range(self):
        doc = make_document(0, [(2**64 - 1, 2**63 - 1), (0, 1)], [2**63 - 1, 0])
        assert doc.token_ids.tolist() == [2**64 - 1, 0]
        assert doc.token_counts.tolist() == [2**63 - 1, 1]
        assert doc.labels.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize(
        "ids,labels,message",
        [
            ([-1, 5], [], "doc 5: token ids must be >= 0"),
            ([7, -2**63], [1], "doc 5: token ids must be >= 0"),
            ([-1, 5], [-3], "doc 5: token ids must be >= 0"),
            ([], [-3], "doc 5: labels must be >= 0"),
            ([4], [-1, 2], "doc 5: labels must be >= 0"),
        ],
    )
    def test_refuses_negative_ids_before_casting(self, ids, labels, message):
        # the Python values are checked: cast to uint64 unchecked, -1 is 2**64 - 1
        with pytest.raises(ValueError) as err:
            make_document(5, [(t, 1) for t in ids], labels)
        assert str(err.value) == message


def made_documents(seed, rows):
    """Checked documents, one a block: every fifth has no tokens, every seventh no labels."""
    rng = np.random.default_rng(seed)
    docs = []
    for r in range(rows):
        ids = [] if r % 5 == 0 else rng.choice(2**40, rng.integers(1, 9), replace=False).tolist()
        labels = [] if r % 7 == 0 else rng.choice(50, rng.integers(1, 4), replace=False).tolist()
        docs.append(make_document(100 + r, [(t, 1 + t % 5) for t in ids], labels))
    return docs


def per_row(docs):
    """The five arrays of a block, joined from each document's own arrays."""
    ids = [d.token_ids for d in docs]
    labels = [d.labels for d in docs]
    return (
        np.concatenate([np.empty(0, np.uint64), *ids]),
        np.concatenate([np.empty(0, np.int64), *(d.token_counts for d in docs)]),
        row_offsets([a.size for a in ids]),
        np.concatenate([np.empty(0, np.int64), *labels]),
        row_offsets([a.size for a in labels]),
    )


def cases():
    made = made_documents(0, 30)
    rows = list(DocBlock.from_documents(made).documents())
    other = list(DocBlock.from_documents(made_documents(1, 12)).documents(range(500, 512)))
    return {
        "in order": rows,
        "reversed": rows[::-1],
        "subset": rows[3:20:4],
        "repeated": [rows[2], rows[2], rows[0], rows[2]],
        "mixed blocks": [*rows[:4], *other[2:5], *rows[4:6], made[1], other[0], made[9]],
        "made": made,
        "empty rows": [d for d in rows if d.token_ids.size == 0 or d.labels.size == 0],
        "one": [rows[3]],
        "none": [],
    }


class TestHandles:
    def test_rows_of_their_block(self):
        block = DocBlock.from_documents(made_documents(0, 30))
        docs = list(block.documents())
        assert [d.doc_id for d in docs] == list(range(30)) == [d.row for d in docs]
        for d in docs:
            assert d.block is block
            t0, t1 = block.token_offsets[d.row : d.row + 2]
            assert np.shares_memory(d.token_ids, block.token_ids) or t0 == t1
            assert d.token_ids.tolist() == block.token_ids[t0:t1].tolist()
        with pytest.raises(ValueError):
            list(block.documents(range(29)))

    @pytest.mark.parametrize("name", list(cases()))
    def test_from_documents_equals_joining_rows(self, name):
        docs = cases()[name]
        block = DocBlock.from_documents(docs)
        got = (block.token_ids, block.token_counts, block.token_offsets)
        got += (block.labels, block.label_offsets)
        for a, b in zip(got, per_row(docs)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["counts", "binary"])
    @pytest.mark.parametrize("name", [n for n in cases() if n != "none"])
    def test_hash_features_rows_have_their_lone_bits(self, name, mode):
        docs = cases()[name]
        feats = hash_features(docs, [3, 9], 64, mode)
        for seed, f in zip([3, 9], feats):
            offsets = [0, f.indexes.size] if len(docs) == 1 else f.offsets.tolist()
            for r, doc in enumerate(docs):
                alone = hash_features(doc, seed, 64, mode)
                a, b = offsets[r], offsets[r + 1]
                assert f.indexes[a:b].tobytes() == alone.indexes.tobytes()
                assert f.values[a:b].tobytes() == alone.values.tobytes()

    def test_pickles_its_row_alone(self):
        block = DocBlock.from_documents(made_documents(0, 400))
        doc = list(block.documents(range(1000, 1400)))[33]
        raw = pickle.dumps(doc)
        back = pickle.loads(raw)
        assert type(back) is Document and back.doc_id == 1033
        for name in ("token_ids", "token_counts", "labels"):
            a, b = getattr(doc, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        row = doc.token_ids.nbytes + doc.token_counts.nbytes + doc.labels.nbytes
        assert len(raw) <= row + 1024
        assert len(pickle.dumps(block)) > 10 * len(raw)

    def test_keeps_its_block_alive(self):
        block = DocBlock.from_documents(made_documents(0, 3))
        doc, alive = list(block.documents())[1], weakref.ref(block)
        want = doc.token_ids.tolist()
        del block
        gc.collect()
        assert alive() is not None and doc.token_ids.tolist() == want
        del doc
        gc.collect()
        assert alive() is None

    def test_immutable_and_equal_only_to_itself(self):
        doc = make_document(3, [(10, 2)], [1])
        twin = make_document(3, [(10, 2)], [1])
        with pytest.raises(FrozenInstanceError):
            doc.doc_id = 4
        with pytest.raises(FrozenInstanceError):
            del doc.row
        assert doc == doc and doc != twin and len({doc, twin}) == 2
        assert repr(doc) == "Document(doc_id=3)"

    def test_cast_to_the_block_dtypes(self):
        ids, counts = np.array([2**60 + 1, 5]), np.array([1, 2], np.int32)
        doc = make_document(0, list(zip(ids, counts)), list(np.array([3], np.uint64)))
        assert doc.token_ids.dtype == np.uint64 and doc.token_ids.tolist() == [2**60 + 1, 5]
        assert doc.token_counts.dtype == np.int64 and doc.token_counts.tolist() == [1, 2]
        assert doc.labels.dtype == np.int64 and doc.labels.tolist() == [3]


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

    def test_largest_counts_sum_finite(self):
        """HashedFeatures checks nothing: the largest counts, all in one slot, stay finite."""
        doc = make_document(0, [(t, 2**63 - 1) for t in range(1000)], [])
        feats = hash_features(doc, 3, 1, "counts")
        assert feats.indexes.tolist() == [0] and np.isfinite(feats.values).all()

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
    @pytest.mark.parametrize("feature_dim", [1, 3, 4, 5, 7, 1 << 13])
    def test_bit_identical(self, mode, feature_dim):
        """Small dims force collisions, including runs of three or more tokens;
        at dim 1 every token collides.  Trial 0 is a query with no tokens.

        A sequence of seeds gives each seed's features with the bits of a
        call for that seed alone."""
        rng = np.random.default_rng(feature_dim)
        collided = 0
        for trial in range(60):
            n = int(rng.integers(0, 12)) if trial else 0
            ids = rng.choice(2**40, size=n, replace=False)
            counts = rng.integers(1, 2**20, size=n)
            doc = make_document(trial, list(zip(ids.tolist(), counts.tolist())), [])
            seeds = rng.integers(0, 2**63, size=int(rng.integers(1, 6))).tolist()
            seed = seeds[0]
            feats = hash_features(doc, seed, feature_dim, mode)
            indexes, values = hash_features_reference(doc, seed, feature_dim, mode)
            assert feats.indexes.dtype == indexes.dtype == np.int64
            assert feats.indexes.tobytes() == indexes.tobytes()
            assert feats.values.dtype == values.dtype == np.float64
            assert feats.values.tobytes() == values.tobytes()
            collided += indexes.size < n
            assert_k_wide(doc, seeds, feature_dim, mode)
        if feature_dim < 8:
            assert collided > 10

    @pytest.mark.parametrize("mode", ["counts", "binary"])
    def test_k_wide_seeds(self, mode):
        """Repeated seeds, seeds at and past 2**32, and no seeds at all."""
        doc = make_document(0, [(t * 7919, t % 3 + 1) for t in range(40)], [])
        for seeds in ([], [5, 5], [2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1], (np.uint64(9), 2**70)):
            for feature_dim in (1, 2, 3, 1 << 13, 2**32 - 1, 2**40):
                assert_k_wide(doc, seeds, feature_dim, mode)


def assert_k_wide(doc, seeds, feature_dim, mode):
    """``hash_features(doc, seeds, ...)`` is the one-seed calls, in order, bit for bit."""
    many = hash_features(doc, seeds, feature_dim, mode)
    assert isinstance(many, list) and len(many) == len(seeds)
    for feats, seed in zip(many, seeds):
        one = hash_features(doc, seed, feature_dim, mode)
        assert feats.dim == one.dim == feature_dim
        assert feats.indexes.dtype == one.indexes.dtype == np.int64
        assert feats.indexes.tobytes() == one.indexes.tobytes()
        assert feats.values.dtype == one.values.dtype == np.float64
        assert feats.values.tobytes() == one.values.tobytes()


class TestHashBlock:
    @pytest.mark.parametrize("mode", ["counts", "binary"])
    @pytest.mark.parametrize("feature_dim", [1, 5, 1 << 13])
    def test_rows_are_the_documents_alone(self, mode, feature_dim):
        """A list of documents, an empty one and a repeated one among them, gives one
        ``HashedFeatures`` a seed whose row r has the bits of hashing document r alone."""
        rng = np.random.default_rng(feature_dim)
        docs = []
        for i in range(9):
            n = 0 if i == 4 else int(rng.integers(1, 12))
            ids = rng.choice(2**40, size=n, replace=False).tolist()
            docs.append(make_document(i, list(zip(ids, rng.integers(1, 2**20, size=n).tolist())), []))
        docs.append(docs[2])
        for seeds in (11, [11, 2**40 + 3, 7]):
            many = hash_features(docs, seeds, feature_dim, mode)
            for feats, seed in zip([many] if isinstance(seeds, int) else many, np.atleast_1d(seeds)):
                assert feats.offsets.dtype == np.int64 and feats.offsets.size == len(docs) + 1
                assert feats.offsets[0] == 0 and feats.offsets[-1] == feats.indexes.size
                for r, doc in enumerate(docs):
                    alone = hash_features(doc, int(seed), feature_dim, mode)
                    assert alone.offsets is None  # one document is one row
                    a, b = feats.offsets[r], feats.offsets[r + 1]
                    assert feats.indexes[a:b].tobytes() == alone.indexes.tobytes()
                    assert feats.values[a:b].tobytes() == alone.values.tobytes()

    def test_list_of_one_is_the_document(self):
        doc = make_document(0, [(5, 2), (9, 1)], [])
        for one, alone in zip(hash_features([doc], [1, 2], 16), hash_features(doc, [1, 2], 16)):
            assert one.offsets is None
            assert one.indexes.tobytes() == alone.indexes.tobytes()
            assert one.values.tobytes() == alone.values.tobytes()

    def test_no_documents(self):
        feats = hash_features([], [1, 2], 16)
        assert [(f.indexes.size, f.values.size, f.offsets.tolist()) for f in feats] == [
            (0, 0, [0]),
            (0, 0, [0]),
        ]


class TestMergeRows:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        sizes=st.lists(st.integers(min_value=0, max_value=12), max_size=8),
        dim=st.one_of(st.integers(min_value=1, max_value=3), st.integers(1, 2**40)),
        saturate=st.booleans(),
    )
    def test_each_row_merges_as_alone(self, data, sizes, dim, saturate):
        """Property: one merge over many rows, empty ones included, gives each row
        the columns and value bits of merging that row alone, strictly increasing,
        and ``indptr`` ends at the number of merged entries."""
        n = sum(sizes)
        cols = data.draw(st.lists(st.integers(0, min(dim, 2**32) - 1), min_size=n, max_size=n))
        counts = data.draw(st.lists(st.integers(1, 2**62), min_size=n, max_size=n))
        cols, values = np.array(cols, dtype=np.int64), np.array(counts, dtype=np.float64)
        offsets = row_offsets(sizes)
        indptr, merged_cols, merged_values = merge_rows(cols, values, offsets, dim, saturate)
        assert indptr.size == len(sizes) + 1 and indptr[0] == 0
        assert indptr[-1] == merged_cols.size == merged_values.size
        for row, (a, b) in enumerate(zip(offsets.tolist(), offsets[1:].tolist())):
            _, alone_cols, alone_values = merge_rows(
                cols[a:b], values[a:b], row_offsets([b - a]), dim, saturate
            )
            got = slice(indptr[row], indptr[row + 1])
            assert merged_cols[got].tobytes() == alone_cols.tobytes()
            assert merged_values[got].tobytes() == alone_values.tobytes()
            assert merged_cols[got].tolist() == np.unique(cols[a:b]).tolist()
            assert (np.diff(merged_cols[got]) > 0).all()

    def test_row_offsets(self):
        empty = row_offsets([])
        assert empty.dtype == np.int64 and empty.tolist() == [0]
        offsets = row_offsets(np.array([2, 0, 3]))
        assert offsets.dtype == np.int64 and offsets.tolist() == [0, 2, 2, 5]


class TestHashedFeaturesChecks:
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
