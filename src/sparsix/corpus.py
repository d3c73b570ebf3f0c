"""Corpus file ingestion and synthetic corpus generation.

File format (one corpus per file):

    <num_points> <num_features> <num_labels>
    l1,l2,...  t:c  t:c  ...

The header declares how many data lines follow and the exclusive upper
bounds for token and label ids.  Each data line starts with a comma-
separated list of label ids (possibly empty) followed by space-separated
token:count pairs.  Header fields, ids, labels and counts are ASCII decimal
digits; a count may also be written in float form (``2.0``, ``1e3``) when its
value is a whole number.  Counts are positive; the engine is bag-of-words count
based, so fractional values are rejected rather than silently rounded.  A path
that names no file is a ``ValueError`` from every reader, naming the path, and a
byte that is not UTF-8 a ``CorpusFormatError`` naming its line.

Three of these rules serve every text input: :func:`decimal` reads each integer
a user types (config values, ``SPARSIX_WORKERS``, integer flags, k lists),
:func:`ascii_float` each float (float-form counts, ``lr``), and :func:`check_utf8`
names a config line's bad byte as it does a corpus line's.

One parser, ``read_block``, reads and checks the whole file into a columnar
:class:`features.DocBlock`, whose row offsets :func:`features.row_offsets`
builds from each line's sizes; errors carry the 1-based line number.  It reads
the file in windows of whole lines.  A plain line is labels joined by commas
(possibly none), then `` id:count`` pairs, each number 1 to 18 ASCII digits:
``(?:D(?:,D)*)?(?: D:D)*`` with ``D = [0-9]{1,18}``.  A window of plain lines
is read and checked with a few array operations; any other window, and one
that breaks a rule, goes through the line loop, which also reads the rare
valid forms (float-form counts, tabs, unsorted labels, longer ids) and gives
a bad line's message and line number.  ``parse_corpus`` yields the block's
rows, as ``Document`` handles on them, once the whole file is checked, without
checking each row again.  ``make_separable_corpus`` builds its train and test
splits as two blocks and returns their rows as handles.

:func:`replacing` is the package's one writer: a corpus, each blob, a manifest
and every command's output file is written to a hidden sibling that replaces
the file only once it is whole.  It lives here, beside ``MISSING_ERRNOS``, as
the lowest module both the CLI and the manifest import.
"""
from __future__ import annotations

import contextlib
import errno
import os
import re
from array import array
from pathlib import Path
from typing import IO, Iterator, TextIO

import numpy as np

from .features import DocBlock, Document, row_offsets

# Characters of whole lines per window (a long line may run past it): the
# array pass's working memory stays small beside a large block's bytes.
_WINDOW_CHARS = 1 << 14

# Plain lines, as the module docstring states them; 10**18 - 1 < 2**63, so
# every plain number fits an int64.
_PLAIN_LINES = re.compile(rb"(?:(?:D(?:,D)*)?(?: D:D)*\n)*".replace(b"D", rb"[0-9]{1,18}"))

# Errnos of a path the file system cannot name, or names as a directory: it
# names no file, so a corpus there is a bad input, as a blob there is missing
MISSING_ERRNOS = (errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.ENAMETOOLONG)


class CorpusFormatError(ValueError):
    """Malformed corpus content, pointing at the offending line."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def decimal(raw: str) -> int:
    """``int(raw)`` for ASCII decimal digits only: the one rule for a typed integer.

    ``int`` also reads ``+3``, ``1_0``, surrounding spaces and non-ASCII digits,
    which no input format has.  What ``int`` rejects keeps its message, and a
    negative value passes through so that the range checks report it.
    """
    value = int(raw)
    if value >= 0 and not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{raw!r} is not ASCII decimal digits")
    return value


def ascii_float(raw: str) -> float:
    """``float(raw)`` for ASCII text without ``_``, as :func:`decimal` is for an integer."""
    value = float(raw)
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"{raw!r} is not an ASCII number")
    return value


def _parse_count(raw: str) -> int:
    # An integer literal is read exactly; only forms like "2.0" or "1e3" go
    # through float, which is exact for every integer up to 2**53.
    try:
        int(raw)
    except ValueError:
        number = ascii_float(raw)
        if not np.isfinite(number):
            raise ValueError("value is not finite") from None
        if number != int(number):
            raise ValueError(f"count must be a positive integer, got {raw!r}") from None
        value = int(number)
    else:
        value = decimal(raw)
    if value < 1:
        raise ValueError(f"count must be a positive integer, got {raw!r}")
    return value


def read_header(path: str | Path) -> tuple[int, int, int]:
    """Return (num_points, num_features, num_labels) from the header line."""
    try:
        with _open_text(path) as fh:
            header = fh.readline()
    except OSError as exc:
        if exc.errno not in MISSING_ERRNOS:
            raise
        raise ValueError(f"cannot read corpus {path}: {exc.strerror}") from exc
    if not header:
        raise CorpusFormatError(path, 1, "missing header line")
    check_utf8(path, 1, header)
    parts = header.split()
    if len(parts) != 3:
        raise CorpusFormatError(
            path, 1, f"header must be 'num_points num_features num_labels', got {header.strip()!r}"
        )
    try:
        num_points, num_features, num_labels = (decimal(p) for p in parts)
    except ValueError:
        raise CorpusFormatError(path, 1, f"non-decimal header field in {header.strip()!r}") from None
    if min(num_points, num_features, num_labels) < 0:
        raise CorpusFormatError(path, 1, "header fields must be non-negative")
    return num_points, num_features, num_labels


def _open_text(path: str | Path) -> TextIO:
    """The corpus as text; a byte that is not UTF-8 reads as a lone surrogate.

    Strict decoding would raise for the whole read, naming no line, so each
    line is checked with :func:`check_utf8` once its number is known.
    """
    return open(path, encoding="utf-8", errors="surrogateescape")


def check_utf8(path: str | Path, line_no: int, line: str) -> None:
    """Raise ``CorpusFormatError`` at ``path:line_no`` if ``line`` holds a byte that is not UTF-8.

    ``line`` was decoded with ``errors="surrogateescape"``, so such a byte is a lone surrogate.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise CorpusFormatError(path, line_no, f"byte {byte:#04x} is not UTF-8") from None


def read_block(path: str | Path) -> DocBlock:
    """Read and check a whole corpus file into one block; row r is the r-th data line."""
    num_points, num_features, num_labels = read_header(path)
    # typed buffers hold 8 bytes a value, where a list holds a Python int each;
    # the last two hold each row's token and label counts
    columns = (array("Q"), array("q"), array("q"), array("q"), array("q"))
    ids, counts, labels, token_sizes, label_sizes = columns
    line_no = 1
    with _open_text(path) as fh:
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
        row_offsets(token_sizes),
        np.frombuffer(labels, dtype=np.int64),
        row_offsets(label_sizes),
    )


def parse_corpus(path: str | Path) -> Iterator[Document]:
    """Yield ``read_block(path)``'s rows, checking the whole file before the first.

    Each is a ``Document`` handle on the block's row, not checked again:
    ``read_block`` has enforced every rule ``Document`` states.
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
    data = text.encode("utf-8", "surrogateescape")
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
    path: str | Path,
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
        check_utf8(path, line_no, line)
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
    path: str | Path, line_no: int, line: str, row: int, num_features: int, num_labels: int
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
        labels = sorted(decimal(tok) for tok in label_field.split(",") if tok != "")
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
            token = decimal(head)
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


@contextlib.contextmanager
def replacing(path: str | Path | None, binary: bool = False) -> Iterator[IO | None]:
    """The package's one writer: a new file, a hidden sibling of ``path``, that
    replaces ``path`` once the block succeeds; UTF-8 text, or bytes if ``binary``.

    It is created before the block does any work, so a path that cannot be written or
    names a directory fails first, naming ``path``, and any failure leaves it as it was,
    with no sibling left.  A reader meets the old file or the new one, whole, and one
    that holds the old file open or mapped keeps it.  Mode "x" is O_CREAT | O_EXCL at
    0o666, so the umask sets the mode as a plain open would.  ``None``, no output asked
    for, yields ``None``.
    """
    if path is None:
        yield None
        return
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    try:
        out = partial.open("xb") if binary else partial.open("x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with out:
            yield out
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_corpus(
    path: str | Path, documents: list[Document], num_features: int, num_labels: int
) -> None:
    """Write documents in the corpus file format that read_block reads, replacing
    ``path`` whole once every line is written.

    A document with neither labels nor tokens would be an empty line, which
    the format reserves for blank lines, so it is rejected with ValueError
    before anything is written.
    """
    for doc in documents:
        if doc.labels.size == 0 and doc.num_tokens == 0:
            raise ValueError(
                f"doc {doc.doc_id} has no labels and no tokens; the corpus format has no line for it"
            )
    with replacing(path) as fh:
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

    Returns (train_docs, test_docs, num_features): each split is the rows of
    one block, as handles numbered in the order they were drawn.
    """
    if tokens_per_doc > tokens_per_label:
        raise ValueError("cannot sample more private tokens than the label owns")
    if noise_tokens > noise_vocab:
        raise ValueError("cannot sample more noise tokens than the noise vocabulary")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise_base = num_labels * tokens_per_label
    num_features = noise_base + noise_vocab

    # a label's first docs_per_label draws train and the rest test; draw i of
    # label l is doc id l * per_label + i
    per_label = docs_per_label + test_docs_per_label
    tokens = np.empty((num_labels, per_label, tokens_per_doc + noise_tokens), np.uint64)
    for label in range(num_labels):
        for doc in tokens[label]:
            doc[:tokens_per_doc] = label * tokens_per_label + rng.choice(
                tokens_per_label, size=tokens_per_doc, replace=False
            )
            doc[tokens_per_doc:] = noise_base + rng.choice(
                noise_vocab, size=noise_tokens, replace=False
            )
    doc_ids = np.arange(num_labels * per_label).reshape(num_labels, per_label)

    def split(part: slice) -> list[Document]:
        rows = tokens[:, part]  # (labels, draws, tokens)
        count = rows.shape[0] * rows.shape[1]
        block = DocBlock(
            rows.reshape(-1),
            np.ones(rows.size, np.int64),
            np.arange(count + 1, dtype=np.int64) * rows.shape[2],
            np.repeat(np.arange(num_labels, dtype=np.int64), rows.shape[1]),
            np.arange(count + 1, dtype=np.int64),
        )
        return list(block.documents(doc_ids[:, part].reshape(-1).tolist()))

    return split(slice(docs_per_label)), split(slice(docs_per_label, None)), num_features
