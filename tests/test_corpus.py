"""Corpus file format: header, labels, token pairs, errors, synthesis."""
from __future__ import annotations

import numpy as np
import pytest

from sparsix.corpus import (
    CorpusFormatError,
    make_separable_corpus,
    parse_corpus,
    read_header,
    write_corpus,
)
from sparsix.features import make_document


def corpus_file(tmp_path, text, name="c.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestHeader:
    def test_reads_three_fields(self, tmp_path):
        p = corpus_file(tmp_path, "2 100 7\n0 1:1\n1 2:1\n")
        assert read_header(p) == (2, 100, 7)

    @pytest.mark.parametrize(
        "header",
        ["", "2 100", "2 100 7 9", "two 100 7", "-1 100 7"],
    )
    def test_bad_header_rejected(self, tmp_path, header):
        p = corpus_file(tmp_path, header + "\n0 1:1\n")
        with pytest.raises(CorpusFormatError):
            read_header(p)


class TestParsing:
    def test_basic_document(self, tmp_path):
        p = corpus_file(tmp_path, "1 10 5\n2,0 3:4 7:1\n")
        docs = list(parse_corpus(p))
        assert len(docs) == 1
        d = docs[0]
        assert d.doc_id == 0
        assert d.labels.tolist() == [0, 2]  # sorted
        assert d.token_ids.tolist() == [3, 7]
        assert d.token_counts.tolist() == [4, 1]

    def test_doc_ids_are_data_line_ordinals(self, tmp_path):
        p = corpus_file(tmp_path, "3 10 5\n0 1:1\n\n1 2:1\n2 3:1\n")
        ids = [d.doc_id for d in parse_corpus(p)]
        assert ids == [0, 1, 2]  # blank line does not consume an id

    def test_leading_space_means_no_labels(self, tmp_path):
        p = corpus_file(tmp_path, "1 10 5\n 3:2 4:1\n")
        d = next(parse_corpus(p))
        assert d.labels.size == 0
        assert d.token_ids.tolist() == [3, 4]

    def test_labels_only_line(self, tmp_path):
        p = corpus_file(tmp_path, "1 10 5\n1,2\n")
        d = next(parse_corpus(p))
        assert d.labels.tolist() == [1, 2]
        assert d.num_tokens == 0

    def test_missing_label_field_detected(self, tmp_path):
        # token pair in the label slot, no leading space
        p = corpus_file(tmp_path, "1 10 5\n3:2 4:1\n")
        with pytest.raises(CorpusFormatError, match="label field"):
            list(parse_corpus(p))

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("9 1:1", "outside"),  # label beyond num_labels
            ("0 99:1", "outside"),  # token beyond num_features
            ("0 1:0", "positive integer"),
            ("0 1:1.5", "positive integer"),
            ("0 1:-2", "positive integer"),
            ("0 1:", "pair"),
            ("0 :1", "pair"),
            ("0 11", "pair"),
            ("a 1:1", "label"),
            ("1,1 2:1", "duplicate"),
        ],
    )
    def test_bad_lines_rejected(self, tmp_path, line, fragment):
        p = corpus_file(tmp_path, f"1 10 5\n{line}\n")
        with pytest.raises(CorpusFormatError, match=fragment):
            list(parse_corpus(p))

    def test_error_carries_line_number(self, tmp_path):
        p = corpus_file(tmp_path, "2 10 5\n0 1:1\n0 1:bad\n")
        with pytest.raises(CorpusFormatError, match=r":3:"):
            list(parse_corpus(p))

    @pytest.mark.parametrize("pair", ["3:100000000000000000000", f"{2**64}:1"])
    def test_values_beyond_64_bits_rejected(self, tmp_path, pair):
        # the header allows the token id, so only the 64-bit range can reject it
        p = corpus_file(tmp_path, f"2 {2**70} 5\n0 1:1\n0 {pair}\n")
        with pytest.raises(CorpusFormatError, match=r":3: .*64-bit"):
            list(parse_corpus(p))

    @pytest.mark.parametrize(
        "raw,count",
        [("9007199254740993", 2**53 + 1), ("9223372036854775807", 2**63 - 1), ("2.0", 2)],
    )
    def test_counts_parse_exactly(self, tmp_path, raw, count):
        # integer literals beyond 2**53 must not pass through float
        p = corpus_file(tmp_path, f"1 10 5\n0 3:{raw}\n")
        assert next(parse_corpus(p)).token_counts.tolist() == [count]

    def test_count_mismatch_over(self, tmp_path):
        p = corpus_file(tmp_path, "1 10 5\n0 1:1\n1 2:1\n")
        with pytest.raises(CorpusFormatError, match="more than"):
            list(parse_corpus(p))

    def test_count_mismatch_under(self, tmp_path):
        p = corpus_file(tmp_path, "3 10 5\n0 1:1\n")
        with pytest.raises(CorpusFormatError, match="expected 3"):
            list(parse_corpus(p))

    def test_zero_data_lines_ok_when_declared(self, tmp_path):
        p = corpus_file(tmp_path, "0 10 5\n")
        assert list(parse_corpus(p)) == []

    def test_repeated_token_id_rejected(self, tmp_path):
        # document token ids must be unique; duplicates are a format error here
        p = corpus_file(tmp_path, "1 10 5\n0 1:1 1:2\n")
        with pytest.raises(CorpusFormatError):
            list(parse_corpus(p))


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        docs = [
            make_document(0, [(3, 4), (7, 1)], [0, 2]),
            make_document(1, [], [1]),
            make_document(2, [(5, 2)], []),
        ]
        p = tmp_path / "rt.txt"
        write_corpus(p, docs, num_features=10, num_labels=5)
        back = list(parse_corpus(p))
        assert len(back) == len(docs)
        for a, b in zip(docs, back):
            assert a.doc_id == b.doc_id
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.token_ids, b.token_ids)
            assert np.array_equal(a.token_counts, b.token_counts)

    def test_document_without_labels_or_tokens_rejected(self, tmp_path):
        docs = [make_document(0, [(3, 1)], [0]), make_document(7, [], [])]
        p = tmp_path / "empty.txt"
        with pytest.raises(ValueError, match="doc 7"):
            write_corpus(p, docs, num_features=10, num_labels=5)
        assert not p.exists()

    def test_synthetic_corpus_round_trips(self, tmp_path):
        train, _, num_features = make_separable_corpus(
            num_labels=10, docs_per_label=3, test_docs_per_label=1, seed=4
        )
        p = tmp_path / "syn.txt"
        write_corpus(p, train, num_features=num_features, num_labels=10)
        back = list(parse_corpus(p))
        for a, b in zip(train, back):
            assert np.array_equal(a.token_ids, b.token_ids)
            assert np.array_equal(a.labels, b.labels)


class TestSeparableCorpus:
    def test_shapes_and_ownership(self):
        train, test, num_features = make_separable_corpus(
            num_labels=6,
            tokens_per_label=5,
            docs_per_label=4,
            tokens_per_doc=3,
            noise_tokens=2,
            noise_vocab=50,
            test_docs_per_label=2,
            seed=0,
        )
        assert len(train) == 6 * 4
        assert len(test) == 6 * 2
        assert num_features == 6 * 5 + 50
        noise_base = 6 * 5
        for doc in train + test:
            assert doc.labels.size == 1
            label = int(doc.labels[0])
            private = doc.token_ids[doc.token_ids < noise_base]
            noise = doc.token_ids[doc.token_ids >= noise_base]
            assert private.size == 3 and noise.size == 2
            # private tokens stay inside the label's own block
            assert np.all(private // 5 == label)
            assert np.all(noise < num_features)

    def test_doc_ids_unique(self):
        train, test, _ = make_separable_corpus(num_labels=5, seed=1)
        ids = [d.doc_id for d in train + test]
        assert len(set(ids)) == len(ids)

    def test_seed_determinism(self):
        a_train, a_test, _ = make_separable_corpus(num_labels=4, seed=9)
        b_train, b_test, _ = make_separable_corpus(num_labels=4, seed=9)
        for x, y in zip(a_train + a_test, b_train + b_test):
            assert np.array_equal(x.token_ids, y.token_ids)
            assert np.array_equal(x.labels, y.labels)

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            make_separable_corpus(num_labels=3, tokens_per_label=2, tokens_per_doc=5)
        with pytest.raises(ValueError):
            make_separable_corpus(num_labels=3, noise_tokens=10, noise_vocab=5)
