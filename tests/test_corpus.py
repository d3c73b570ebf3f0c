"""Corpus file format: header, labels, token pairs, errors, synthesis."""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from sparsix import corpus
from sparsix.corpus import (
    CorpusFormatError,
    _parse_line,
    make_separable_corpus,
    parse_corpus,
    read_block,
    read_header,
    write_corpus,
)
from sparsix.features import Document, make_document


def corpus_file(tmp_path, text, name="c.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def read_documents(path):
    return list(parse_corpus(path))


# both ways to read a corpus; the error tests hold each of them
READERS = (read_block, read_documents)


class TestHeader:
    def test_reads_three_fields(self, tmp_path):
        p = corpus_file(tmp_path, "2 100 7\n0 1:1\n1 2:1\n")
        assert read_header(p) == (2, 100, 7)

    @pytest.mark.parametrize(
        "header",
        ["", "2 100", "2 100 7 9", "two 100 7", "-1 100 7", "+2 100 7", "2 1_00 7", "2 100 \u0667"],
    )
    def test_bad_header_rejected(self, tmp_path, header):
        p = corpus_file(tmp_path, header + "\n0 1:1\n")
        with pytest.raises(CorpusFormatError):
            read_header(p)

    def test_path_naming_no_file_rejected(self, tmp_path):
        missing = tmp_path / "absent.txt"
        with pytest.raises(ValueError) as info:
            read_block(missing)
        assert str(info.value).startswith(f"cannot read corpus {missing}: ")


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
        assert d.token_ids.size == 0

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
            ("0 1:1,2", "pair"),
            ("0 1:2:3", "pair"),
            ("a 1:1", "label"),
            ("1,1 2:1", "duplicate"),
        ],
    )
    def test_bad_lines_rejected(self, tmp_path, line, fragment):
        p = corpus_file(tmp_path, f"1 10 5\n{line}\n")
        for read in READERS:
            with pytest.raises(CorpusFormatError, match=fragment):
                read(p)

    @pytest.mark.parametrize(
        "line",
        [
            "0 1_0:2 +3:1_0 \u0664:1",
            "0 1_0:2",
            "0 +3:1",
            "0 \u0664:1",
            "0 3:1_0",
            "0 3:+3",
            "0 3:\u0664",
            "0 3:1_0.0",
            "0 3:\u0664.0",
            "+1 2:1",
            "1_0 2:1",
            "\u0664 2:1",
            "1\t,2 3:1",
            "-0 2:1",
        ],
    )
    def test_number_forms_int_alone_reads_rejected(self, tmp_path, line):
        """Ids, labels and integer counts are ASCII digits: not signed, grouped or non-ASCII."""
        # the header admits every value int() reads from these lines
        p = corpus_file(tmp_path, f"2 100 20\n0 1:1\n{line}\n")
        for read in READERS:
            with pytest.raises(CorpusFormatError, match=r":3: "):
                read(p)

    def test_error_carries_line_number(self, tmp_path):
        p = corpus_file(tmp_path, "2 10 5\n0 1:1\n0 1:bad\n")
        # parse_corpus checks the whole file before it yields line 2's document
        for read in (*READERS, lambda path: next(parse_corpus(path))):
            with pytest.raises(CorpusFormatError, match=r":3:"):
                read(p)

    @pytest.mark.parametrize("line_no", [1, 2, 2000])
    def test_non_utf8_byte_names_its_line(self, tmp_path, line_no):
        """Byte 0xff, which UTF-8 never uses: in the header, the first data line,
        and a line past the first read window."""
        lines = [b"2500 10 5"] + [b"0 1:1"] * 2500
        lines[line_no - 1] += b"\xff"
        p = tmp_path / "c.txt"
        p.write_bytes(b"\n".join(lines) + b"\n")
        readers = (read_header, *READERS) if line_no == 1 else READERS
        for read in readers:
            with pytest.raises(CorpusFormatError) as info:
                read(p)
            assert str(info.value) == f"{p}:{line_no}: byte 0xff is not UTF-8"

    @pytest.mark.parametrize("pair", ["3:100000000000000000000", f"{2**64}:1"])
    def test_values_beyond_64_bits_rejected(self, tmp_path, pair):
        # the header allows the token id, so only the 64-bit range can reject it
        p = corpus_file(tmp_path, f"2 {2**70} 5\n0 1:1\n0 {pair}\n")
        for read in READERS:
            with pytest.raises(CorpusFormatError, match=r":3: .*64-bit"):
                read(p)

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
        for read in READERS:
            with pytest.raises(CorpusFormatError, match="more than"):
                read(p)

    def test_count_mismatch_under(self, tmp_path):
        p = corpus_file(tmp_path, "3 10 5\n0 1:1\n")
        for read in READERS:
            with pytest.raises(CorpusFormatError, match="expected 3"):
                read(p)

    def test_zero_data_lines_ok_when_declared(self, tmp_path):
        p = corpus_file(tmp_path, "0 10 5\n")
        assert list(parse_corpus(p)) == []

    def test_repeated_token_id_rejected(self, tmp_path):
        # document token ids must be unique; duplicates are a format error here
        p = corpus_file(tmp_path, "1 10 5\n0 1:1 1:2\n")
        for read in READERS:
            with pytest.raises(CorpusFormatError, match="duplicate token ids"):
                read(p)


class TestBlock:
    def test_edge_corpus(self, tmp_path):
        """Blank and whitespace-only lines, unlabeled and labels-only rows, float-form
        counts, token ids at and above 2**63, and an unsorted label field."""
        text = (
            f"7 {2**70} 50\n"
            "\n"
            "3,1 5:2 9:1.0e0\n"
            " 7:2.0 8:1e3\n"
            "   \n"
            "4,2\n"
            f" {2**63 + 7}:1 4:3\n"
            f"12,0,5 {2**64 - 1}:2\n"
            "\t\n"
            "30 1:1\n"
            ",  2:1\n"
        )
        block = read_block(corpus_file(tmp_path, text))
        expected = {
            "token_ids": np.array([5, 9, 7, 8, 2**63 + 7, 4, 2**64 - 1, 1, 2], dtype=np.uint64),
            "token_counts": np.array([2, 1, 2, 1000, 1, 3, 2, 1, 1], dtype=np.int64),
            "token_offsets": np.array([0, 2, 4, 4, 6, 7, 8, 9], dtype=np.int64),
            "labels": np.array([1, 3, 2, 4, 0, 5, 12, 30], dtype=np.int64),
            "label_offsets": np.array([0, 2, 2, 4, 4, 7, 8, 8], dtype=np.int64),
        }
        for name, want in expected.items():
            got = getattr(block, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

        rows = list(parse_corpus(corpus_file(tmp_path, text)))
        assert len(rows) == 7
        for row, doc in enumerate(rows):
            t0, t1 = block.token_offsets[row : row + 2]
            l0, l1 = block.label_offsets[row : row + 2]
            pairs = zip(block.token_ids[t0:t1].tolist(), block.token_counts[t0:t1].tolist())
            checked = make_document(row, list(pairs), block.labels[l0:l1].tolist())
            assert type(doc) is Document and doc.doc_id == checked.doc_id
            for name in ("token_ids", "token_counts", "labels"):
                got, want = getattr(doc, name), getattr(checked, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), (row, name)

    def test_parse_corpus_does_not_check_rows_again(self, tmp_path):
        """read_block has checked every line, so parse_corpus builds no checked Document:
        every handle is a row of the block read, none a one-row block of make_document."""
        p = corpus_file(tmp_path, "3 10 5\n0 1:1\n\n1,2 2:1 3:4\n 4:1\n")
        docs = list(parse_corpus(p))
        assert [d.doc_id for d in docs] == [0, 1, 2] == [d.row for d in docs]
        assert len({id(d.block) for d in docs}) == 1
        assert docs[2].block.token_offsets.tolist() == [0, 1, 3, 4]

    def test_documents_hold_little_beside_their_block(self, tmp_path):
        """A parsed Document is a handle on its block's row: 10,000 of them hold a few
        dozen bytes each beside the block, where a dataclass of views held over 500."""
        rng = np.random.default_rng(0)
        rows = 10_000
        lines = [f"{rows} 1000 50"]
        for i in range(rows):
            tokens = rng.choice(1000, 3, replace=False)
            lines.append(f"{i % 50} " + " ".join(f"{t}:{1 + t % 3}" for t in tokens))
        p = corpus_file(tmp_path, "\n".join(lines) + "\n")
        docs, peak = traced_peak(lambda: list(parse_corpus(p)))
        nbytes = sum(a.nbytes for a in vars(docs[0].block).values())
        assert len(docs) == rows and all(d.block is docs[0].block for d in docs)
        assert peak <= nbytes + 160 * rows

    def test_peak_memory_near_the_block_size(self, tmp_path):
        """Values collect in typed buffers: a Python int per value would cost several times more."""
        rng = np.random.default_rng(0)
        lines = ["2000 100000 500"]
        for i in range(2000):
            tokens = rng.choice(100000, 100, replace=False)
            lines.append(f"{i % 500} " + " ".join(f"{t}:{1 + t % 4}" for t in tokens))
        p = corpus_file(tmp_path, "\n".join(lines) + "\n")
        block, peak = traced_peak(lambda: read_block(p))
        nbytes = sum(a.nbytes for a in vars(block).values())
        assert peak <= 1.5 * nbytes


def reference_block(path):
    """The line loop read_block must agree with: one _parse_line call per non-blank line."""
    path = Path(path)
    num_points, num_features, num_labels = read_header(path)
    ids, counts, labels, token_offsets, label_offsets = [], [], [], [0], [0]
    line_no, row = 1, 0
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip()
            if not line:
                continue
            if row == num_points:
                raise CorpusFormatError(
                    path, line_no, f"more than the declared {num_points} data lines"
                )
            columns = _parse_line(path, line_no, line, row, num_features, num_labels)
            for values, more in zip((ids, counts, labels), columns):
                values.extend(more)
            token_offsets.append(len(ids))
            label_offsets.append(len(labels))
            row += 1
    if row < num_points:
        raise CorpusFormatError(path, line_no, f"expected {num_points} data lines, found {row}")
    return {
        "token_ids": np.array(ids, dtype=np.uint64),
        "token_counts": np.array(counts, dtype=np.int64),
        "token_offsets": np.array(token_offsets, dtype=np.int64),
        "labels": np.array(labels, dtype=np.int64),
        "label_offsets": np.array(label_offsets, dtype=np.int64),
    }


NUM_LABELS = 40
BLANK_LINES = ("", "   ", "\t", " \t ")
BAD_LINES = (
    "0 1:0",
    "0 1:x",
    "3:1",
    "0 5:1 5:1",
    f"{NUM_LABELS} 1:1",
    "0 1:1.5",
    "1,1 2:1",
    "0 1_0:2",
    "+1 2:1",
    "0 \u0664:1",
    "0 1:",
    "0 :1",
    "a 1:1",
    "0 1:1,2",
    "0 1:2:3",
    f"0 1:{2**63}",
    f"0 {2**64}:1",
)


@st.composite
def data_line(draw, num_features):
    """One valid data line: mostly plain, else with forms only the line loop reads."""
    rare = draw(st.integers(0, 3)) == 0
    cap = 10 ** draw(st.sampled_from([3, 18, 20] if rare else [3, 18]))
    ids = draw(st.lists(st.integers(0, min(num_features, 2**64, cap) - 1), unique=True, max_size=5))
    count = st.integers(1, min(2**63, cap) - 1)
    counts = draw(st.lists(count, min_size=len(ids), max_size=len(ids)))
    labels = sorted(draw(st.lists(st.integers(0, NUM_LABELS - 1), unique=True, max_size=4)))
    written, gap, tail = [str(c) for c in counts], " ", ""
    if rare:
        labels = draw(st.permutations(labels))
        if counts and draw(st.booleans()):
            i = draw(st.integers(0, len(counts) - 1))
            written[i] = draw(st.sampled_from([f"{counts[i]}.0", f"{counts[i]}e0", f"{counts[i]}.0e0"]))
        gap = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        tail = draw(st.sampled_from(["", " ", "\t"]))
    label_field = ",".join(map(str, labels))
    if rare and draw(st.booleans()):  # empty fields between commas
        label_field = "," + label_field.replace(",", ",,") + ","
    pairs = gap.join(f"{t}:{c}" for t, c in zip(ids, written))
    return (f"{label_field} {pairs}" if pairs else label_field) + tail


@st.composite
def corpus_text(draw):
    num_features = draw(st.sampled_from([1000, 2**70]))
    lines = draw(st.lists(st.one_of(data_line(num_features), st.sampled_from(BLANK_LINES)), max_size=30))
    rows = sum(1 for line in lines if line.strip())
    fault = draw(st.sampled_from(["none", "line", "line", "count"]))
    if fault == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    elif fault == "count":
        rows = max(0, rows + draw(st.sampled_from([-1, 1])))
    end = draw(st.sampled_from(["\n", ""]))
    return f"{rows} {num_features} {NUM_LABELS}\n" + "\n".join(lines) + end


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=corpus_text(), window=st.sampled_from([1, 16, 64, 256, 1 << 14]))
def test_read_block_matches_the_line_loop(tmp_path, monkeypatch, text, window):
    """Windows of any size, plain or not, read as the line loop reads line by line."""
    p = corpus_file(tmp_path, text)
    monkeypatch.setattr(corpus, "_WINDOW_CHARS", window)
    try:
        want = reference_block(p)
    except CorpusFormatError as err:
        with pytest.raises(CorpusFormatError) as got:
            read_block(p)
        assert (str(got.value), got.value.line_no) == (str(err), err.line_no)
        return
    block = read_block(p)
    for name, values in want.items():
        got = getattr(block, name)
        assert got.dtype == values.dtype and np.array_equal(got, values), name



def test_plain_forms_take_the_array_pass(tmp_path, monkeypatch):
    """Labels, no labels, labels only, a blank line, 18 digits and no final newline: all plain."""

    def line_loop(*args):
        raise AssertionError("a plain window went through the line loop")

    monkeypatch.setattr(corpus, "_read_lines", line_loop)
    big = 10**18 - 1
    text = f"5 {2**70} 50\n3,7 5:2 9:1\n 8:4\n\n12\n0,49 {big}:{big} 0:1\n1 2:3"
    block = read_block(corpus_file(tmp_path, text))
    expected = {
        "token_ids": np.array([5, 9, 8, big, 0, 2], dtype=np.uint64),
        "token_counts": np.array([2, 1, 4, big, 1, 3], dtype=np.int64),
        "token_offsets": np.array([0, 2, 3, 3, 5, 6], dtype=np.int64),
        "labels": np.array([3, 7, 12, 0, 49, 1], dtype=np.int64),
        "label_offsets": np.array([0, 2, 2, 3, 5, 6], dtype=np.int64),
    }
    for name, want in expected.items():
        got = getattr(block, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize(
    "line", ["1 2:2.0", "1 2:1\t3:1", "7,1 2:1", "1,,4 2:1", f"1 {10**18}:1", "1 2:1 "]
)
def test_rare_forms_take_the_line_loop(tmp_path, monkeypatch, line):
    """A float-form count, a tab, unsorted labels, a ``,,``, 19 digits or a trailing space."""
    windows, read_lines = [], corpus._read_lines
    monkeypatch.setattr(
        corpus, "_read_lines", lambda *args: windows.append(args[2]) or read_lines(*args)
    )
    p = corpus_file(tmp_path, f"2 {2**70} 50\n0 1:1\n{line}\n")
    block = read_block(p)
    assert windows == [["0 1:1\n", f"{line}\n"]]
    for name, want in reference_block(p).items():
        got = getattr(block, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


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

    def test_failed_write_keeps_the_old_corpus(self, tmp_path):
        """A write that fails after its header leaves the file it would replace as it
        was, with no hidden sibling beside it."""

        class Unreadable:  # passes the up-front check, fails once its line is written
            doc_id, labels, token_ids = 1, np.array([1]), np.array([3], np.uint64)

            @property
            def token_counts(self):
                raise RuntimeError("lost the counts")

        p = tmp_path / "c.txt"
        write_corpus(p, [make_document(0, [(3, 1)], [0])], num_features=10, num_labels=5)
        before = p.read_bytes()
        docs = [make_document(0, [(4, 2)], [2]), Unreadable()]
        with pytest.raises(RuntimeError, match="lost the counts"):
            write_corpus(p, docs, num_features=10, num_labels=5)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["c.txt"]

    @pytest.mark.parametrize(
        "bad,message",
        [
            (make_document(7, [(4, 1), (10, 1)], [1]), "doc 7: token id 10 outside [0, 10)"),
            (make_document(7, [(2**64 - 1, 1)], []), f"doc 7: token id {2**64 - 1} outside [0, 10)"),
            (make_document(7, [(3, 1)], [2, 5]), "doc 7: label id 5 outside [0, 5)"),
            (make_document(7, [], [30]), "doc 7: label id 30 outside [0, 5)"),
        ],
    )
    def test_out_of_range_ids_rejected_before_writing(self, tmp_path, bad, message):
        """A line read_block would refuse is refused before the header: the file it
        would replace stays as it was, with no hidden sibling beside it."""
        p = tmp_path / "c.txt"
        write_corpus(p, [make_document(0, [(3, 1)], [0])], num_features=10, num_labels=5)
        before = p.read_bytes()
        with pytest.raises(ValueError) as err:
            write_corpus(p, [make_document(0, [(9, 1)], [4]), bad], num_features=10, num_labels=5)
        assert str(err.value) == message
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["c.txt"]

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

    def test_splits_are_rows_of_two_blocks(self, tmp_path):
        """Each split is the rows of one block, in order, under the draws' doc ids; the
        files written from them have the digests of one document built per draw."""
        train, test, num_features = make_separable_corpus(
            num_labels=7, docs_per_label=4, test_docs_per_label=3, noise_tokens=3, seed=3
        )
        for docs, ids in ((train, [0, 1, 2, 3, 7, 8, 9, 10]), (test, [4, 5, 6, 11, 12, 13])):
            assert [d.doc_id for d in docs[: len(ids)]] == ids
            assert all(d.block is docs[0].block for d in docs)
            assert [d.row for d in docs] == list(range(len(docs)))
        assert train[0].block is not test[0].block
        digests = []
        for name, docs in (("train", train), ("test", test)):
            write_corpus(tmp_path / name, docs, num_features, 7)
            digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
        assert digests == [
            "c774f574a3673660dbdd175d45b0306d3f2f209255ce7a69a11d092262185f8a",
            "0d1b5a0cfb650d9728061d32e9f8627276628f097170f6042675f1e7090a11b3",
        ]

    def test_empty_split(self):
        train, test, _ = make_separable_corpus(num_labels=3, test_docs_per_label=0, seed=2)
        assert len(train) == 3 * 20 and test == []
