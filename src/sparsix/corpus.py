"""Corpus file ingestion and synthetic corpus generation.

File format (one corpus per file):

    <num_points> <num_features> <num_labels>
    l1,l2,...  t:c  t:c  ...

The header declares how many data lines follow and the exclusive upper
bounds for token and label ids.  Each data line starts with a comma-
separated list of label ids (possibly empty) followed by space-separated
token:count pairs.  Ids, labels and counts are ASCII decimal digits; a count
may also be written in float form (``2.0``, ``1e3``) when its value is a whole
number.  Counts are positive; the engine is bag-of-words count based, so
fractional values are rejected rather than silently rounded.

One parser, ``read_block``, reads and checks the whole file into a columnar
:class:`features.DocBlock`; errors carry the 1-based line number.  It reads
the file in windows of whole lines.  A plain line is labels joined by commas
(possibly none), then `` id:count`` pairs, each number 1 to 18 ASCII digits:
``(?:D(?:,D)*)?(?: D:D)*`` with ``D = [0-9]{1,18}``.  A window of plain lines
is read and checked with a few array operations; any other window, and one
that breaks a rule, goes through the line loop, which also reads the rare
valid forms (float-form counts, tabs, unsorted labels, longer ids) and gives
a bad line's message and line number.  ``parse_corpus`` yields the block's
rows once the whole file is checked, without checking each row again.
"""
from __future__ import annotations

import re
from array import array
from pathlib import Path
from typing import Iterator

import numpy as np

from .features import DocBlock, Document, make_document

# Characters of whole lines per window (a long line may run past it): the
# array pass's working memory stays small beside a large block's bytes.
_WINDOW_CHARS = 1 << 14

# Plain lines, as the module docstring states them; 10**18 - 1 < 2**63, so
# every plain number fits an int64.
_PLAIN_LINES = re.compile(rb"(?:(?:D(?:,D)*)?(?: D:D)*\n)*".replace(b"D", rb"[0-9]{1,18}"))


class CorpusFormatError(ValueError):
    """Malformed corpus content, pointing at the offending line."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def _decimal(raw: str) -> int:
    """``int(raw)`` for ASCII decimal digits only.

    ``int`` also reads ``+3``, ``1_0`` and non-ASCII digits, which the format
    does not have.  What ``int`` rejects keeps its message, and a negative
    value passes through so that the range checks report it.
    """
    value = int(raw)
    if value >= 0 and not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{raw!r} is not ASCII decimal digits")
    return value


def _parse_count(raw: str) -> int:
    # An integer literal is read exactly; only forms like "2.0" or "1e3" go
    # through float, which is exact for every integer up to 2**53.
    try:
        int(raw)
    except ValueError:
        number = float(raw)
        if not np.isfinite(number):
            raise ValueError("value is not finite") from None
        if number != int(number):
            raise ValueError(f"count must be a positive integer, got {raw!r}") from None
        if not raw.isascii() or "_" in raw:
            raise ValueError(f"{raw!r} is not an ASCII number") from None
        value = int(number)
    else:
        value = _decimal(raw)
    if value < 1:
        raise ValueError(f"count must be a positive integer, got {raw!r}")
    return value


def read_header(path: str | Path) -> tuple[int, int, int]:
    """Return (num_points, num_features, num_labels) from the header line."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
    if not header:
        raise CorpusFormatError(path, 1, "missing header line")
    parts = header.split()
    if len(parts) != 3:
        raise CorpusFormatError(
            path, 1, f"header must be 'num_points num_features num_labels', got {header.strip()!r}"
        )
    try:
        num_points, num_features, num_labels = (int(p) for p in parts)
    except ValueError:
        raise CorpusFormatError(path, 1, f"non-integer header field in {header.strip()!r}") from None
    if min(num_points, num_features, num_labels) < 0:
        raise CorpusFormatError(path, 1, "header fields must be non-negative")
    return num_points, num_features, num_labels


def read_block(path: str | Path) -> DocBlock:
    """Read and check a whole corpus file into one block; row r is the r-th data line."""
    path = Path(path)
    num_points, num_features, num_labels = read_header(path)
    # typed buffers hold 8 bytes a value, where a list holds a Python int each;
    # the last two hold each row's token and label counts
    columns = (array("Q"), array("q"), array("q"), array("q"), array("q"))
    ids, counts, labels, token_sizes, label_sizes = columns
    line_no = 1
    with path.open("r", encoding="utf-8") as fh:
        fh.readline()  # header, already validated
        while lines := fh.readlines(_WINDOW_CHARS):
            window = _read_plain(lines, num_points - len(token_sizes), num_features, num_labels)
            if window is None:
                _read_lines(path, line_no, lines, columns, num_points, num_features, num_labels)
            else:
                for buffer, values in zip(columns, window):
                    buffer.frombytes(memoryview(values).cast("B"))
            line_no += len(lines)
    if len(token_sizes) < num_points:
        raise CorpusFormatError(
            path, line_no, f"expected {num_points} data lines, found {len(token_sizes)}"
        )
    return DocBlock(
        np.frombuffer(ids, dtype=np.uint64),
        np.frombuffer(counts, dtype=np.int64),
        _offsets(token_sizes),
        np.frombuffer(labels, dtype=np.int64),
        _offsets(label_sizes),
    )


def _offsets(sizes: array) -> np.ndarray:
    offsets = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(np.frombuffer(sizes, dtype=np.int64), out=offsets[1:])
    return offsets


def parse_corpus(path: str | Path) -> Iterator[Document]:
    """Yield ``read_block(path)``'s rows, checking the whole file before the first.

    The rows are not checked again as each ``Document`` is built: ``read_block``
    has enforced every rule ``Document`` states.
    """
    yield from read_block(path).documents()


def _read_plain(
    lines: list[str], room: int, num_features: int, num_labels: int
) -> tuple[np.ndarray, ...] | None:
    """A window's five columns, read and checked with array operations.

    None when the window is not plain, holds more than ``room`` rows, or breaks
    one of ``_parse_line``'s rules; the line loop then reads it, and raises
    the first bad line's message.  Plain lines hold exactly the values the
    line loop reads from them.
    """
    text = "\n" + "".join(lines)  # the leading newline starts the first line
    if not text.endswith("\n"):  # the file's last line has no newline
        text += "\n"
    data = text.encode()
    if not _PLAIN_LINES.fullmatch(data, 1):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    starts, ends = edges[::2], edges[1::2]  # number i is raw[starts[i]:ends[i]]
    lengths = ends - starts
    # a number after a space is a token id, one after a colon its count, the rest labels
    before = raw[starts - 1]
    is_id, is_count = before == ord(" "), before == ord(":")
    is_label = ~(is_id | is_count)

    values = np.zeros(starts.size, np.int64)
    for k in range(lengths.max(initial=0)):
        digit_k = raw[np.minimum(starts + k, ends - 1)]
        values = np.where(k < lengths, values * 10 + digit_k - ord("0"), values)
    newlines = np.flatnonzero(raw == ord("\n"))
    line = np.searchsorted(newlines, starts)  # ordinal of each number's line
    rows = np.bincount(line, minlength=newlines.size) > 0  # a plain blank line has no number
    if np.count_nonzero(rows) > room:
        return None

    ids, counts, labels = values[is_id], values[is_count], values[is_label]
    id_line, label_line = line[is_id], line[is_label]
    if ids.size and (int(ids.max()) >= num_features or counts.min() < 1):
        return None
    if labels.size and int(labels.max()) >= num_labels:
        return None
    # labels must be strictly increasing within a line, token ids unique; equal
    # ids keep their line order under a stable sort, so a line's repeat is adjacent
    if ((labels[1:] <= labels[:-1]) & (label_line[1:] == label_line[:-1])).any():
        return None
    order = np.argsort(ids, kind="stable")
    sorted_ids, sorted_lines = ids[order], id_line[order]
    if ((sorted_ids[1:] == sorted_ids[:-1]) & (sorted_lines[1:] == sorted_lines[:-1])).any():
        return None
    return (
        ids.view(np.uint64),
        counts,
        labels,
        np.bincount(id_line, minlength=newlines.size)[rows],
        np.bincount(label_line, minlength=newlines.size)[rows],
    )


def _read_lines(
    path: Path,
    line_no: int,
    lines: list[str],
    columns: tuple[array, ...],
    num_points: int,
    num_features: int,
    num_labels: int,
) -> None:
    """Read a window one line at a time into ``columns``; lines[0] follows line ``line_no``."""
    ids, counts, labels, token_sizes, label_sizes = columns
    row = len(token_sizes)
    for line_no, line in enumerate(lines, start=line_no + 1):
        # Leading whitespace is significant: it encodes an empty label
        # field.  Only trailing whitespace is stripped.
        line = line.rstrip()
        if not line:
            continue
        if row == num_points:
            raise CorpusFormatError(
                path, line_no, f"more than the declared {num_points} data lines"
            )
        line_ids, line_counts, line_labels = _parse_line(
            path, line_no, line, row, num_features, num_labels
        )
        ids.fromlist(line_ids)
        counts.fromlist(line_counts)
        labels.fromlist(line_labels)
        token_sizes.append(len(line_ids))
        label_sizes.append(len(line_labels))
        row += 1


def _parse_line(
    path: Path, line_no: int, line: str, row: int, num_features: int, num_labels: int
) -> tuple[list[int], list[int], list[int]]:
    """One data line's token ids (uint64), counts and sorted labels (int64), all checked."""
    label_field, _, rest = line.partition(" ")
    fields = [label_field, *rest.split()]
    if ":" in label_field:
        # No label field at all: the line starts straight at token pairs,
        # which the format expresses as a leading empty field instead.
        raise CorpusFormatError(
            path, line_no, "line must start with a label field (possibly empty)"
        )
    try:
        labels = sorted(_decimal(tok) for tok in label_field.split(",") if tok != "")
    except ValueError:
        raise CorpusFormatError(path, line_no, f"bad label field {label_field!r}") from None
    for lab in labels:
        if not 0 <= lab < num_labels:
            raise CorpusFormatError(
                path, line_no, f"label id {lab} outside [0, {num_labels})"
            )
    if len(set(labels)) != len(labels):
        raise CorpusFormatError(path, line_no, "duplicate label id")

    ids, counts = [], []
    for pair in fields[1:]:
        head, sep, tail = pair.partition(":")
        if not sep or not head or not tail:
            raise CorpusFormatError(path, line_no, f"bad token:count pair {pair!r}")
        try:
            token = _decimal(head)
            cnt = _parse_count(tail)
        except ValueError as exc:
            raise CorpusFormatError(path, line_no, f"bad token:count pair {pair!r} ({exc})") from None
        if not 0 <= token < num_features:
            raise CorpusFormatError(
                path, line_no, f"token id {token} outside [0, {num_features})"
            )
        ids.append(token)
        counts.append(cnt)
    if max(ids, default=0) >= 2**64 or max(counts + labels, default=0) >= 2**63:
        raise CorpusFormatError(path, line_no, "id or count exceeds the 64-bit range")
    if len(set(ids)) != len(ids):
        raise CorpusFormatError(path, line_no, f"doc {row}: duplicate token ids")
    return ids, counts, labels


def write_corpus(
    path: str | Path, documents: list[Document], num_features: int, num_labels: int
) -> None:
    """Write documents in the corpus file format that read_block reads.

    A document with neither labels nor tokens would be an empty line, which
    the format reserves for blank lines, so it is rejected with ValueError
    before anything is written.
    """
    for doc in documents:
        if doc.labels.size == 0 and doc.num_tokens == 0:
            raise ValueError(
                f"doc {doc.doc_id} has no labels and no tokens; the corpus format has no line for it"
            )
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(documents)} {num_features} {num_labels}\n")
        for doc in documents:
            labels = ",".join(str(x) for x in doc.labels.tolist())
            pairs = " ".join(
                f"{t}:{c}" for t, c in zip(doc.token_ids.tolist(), doc.token_counts.tolist())
            )
            fh.write(f"{labels} {pairs}".rstrip() + "\n")


# --- synthetic corpus -------------------------------------------------------


def make_separable_corpus(
    num_labels: int,
    tokens_per_label: int = 5,
    docs_per_label: int = 20,
    tokens_per_doc: int = 3,
    noise_tokens: int = 2,
    noise_vocab: int = 1000,
    test_docs_per_label: int = 2,
    seed: int = 0,
) -> tuple[list[Document], list[Document], int]:
    """Linearly separable single-label corpus for end-to-end checks.

    Each label owns a private block of ``tokens_per_label`` token ids; a
    document for that label samples ``tokens_per_doc`` of them plus a few
    tokens from a shared noise vocabulary.  Any model that keys on private
    tokens can rank the true label first, which makes this corpus a quality
    oracle: high precision is achievable, so low precision indicates a bug.

    Returns (train_docs, test_docs, num_features).
    """
    if tokens_per_doc > tokens_per_label:
        raise ValueError("cannot sample more private tokens than the label owns")
    if noise_tokens > noise_vocab:
        raise ValueError("cannot sample more noise tokens than the noise vocabulary")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise_base = num_labels * tokens_per_label
    num_features = noise_base + noise_vocab

    def draw(label: int, doc_id: int) -> Document:
        private = label * tokens_per_label + rng.choice(
            tokens_per_label, size=tokens_per_doc, replace=False
        )
        noise = noise_base + rng.choice(noise_vocab, size=noise_tokens, replace=False)
        tokens = [(int(t), 1) for t in np.concatenate([private, noise])]
        return make_document(doc_id, tokens, [label])

    train: list[Document] = []
    test: list[Document] = []
    next_id = 0
    for label in range(num_labels):
        for _ in range(docs_per_label):
            train.append(draw(label, next_id))
            next_id += 1
        for _ in range(test_docs_per_label):
            test.append(draw(label, next_id))
            next_id += 1
    return train, test, num_features
