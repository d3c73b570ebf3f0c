"""Corpus file ingestion and synthetic corpus generation.

File format (one corpus per file):

    <num_points> <num_features> <num_labels>
    l1,l2,...  t:c  t:c  ...

The header declares how many data lines follow and the exclusive upper
bounds for token and label ids.  Each data line starts with a comma-
separated list of label ids (possibly empty) followed by space-separated
token:count pairs.  Counts are positive integers; the engine is bag-of-
words count based, so fractional values are rejected rather than silently
rounded.

Parsing is streaming: documents are yielded one line at a time and errors
carry the 1-based line number.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from .features import Document, make_document


class CorpusFormatError(ValueError):
    """Malformed corpus content, pointing at the offending line."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def _parse_count(raw: str) -> int:
    # An integer literal is read exactly; only forms like "2.0" or "1e3" go
    # through float, which is exact for every integer up to 2**53.
    try:
        value = int(raw)
    except ValueError:
        number = float(raw)
        if not np.isfinite(number):
            raise ValueError("value is not finite") from None
        if number != int(number):
            raise ValueError(f"count must be a positive integer, got {raw!r}") from None
        value = int(number)
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


def parse_corpus(path: str | Path) -> Iterator[Document]:
    """Stream documents from a corpus file; doc ids are line ordinals."""
    path = Path(path)
    num_points, num_features, num_labels = read_header(path)
    with path.open("r", encoding="utf-8") as fh:
        fh.readline()  # header, already validated

        count = 0
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            # Leading whitespace is significant: it encodes an empty label
            # field.  Only trailing whitespace is stripped.
            line = line.rstrip()
            if not line.strip():
                continue
            count += 1
            if count > num_points:
                raise CorpusFormatError(
                    path, line_no, f"more than the declared {num_points} data lines"
                )
            yield _parse_line(path, line_no, line, count - 1, num_features, num_labels)
        if count < num_points:
            raise CorpusFormatError(
                path, line_no, f"expected {num_points} data lines, found {count}"
            )


def _parse_line(
    path: Path, line_no: int, line: str, doc_id: int, num_features: int, num_labels: int
) -> Document:
    label_field, _, rest = line.partition(" ")
    fields = [label_field, *rest.split()]
    if ":" in label_field:
        # No label field at all: the line starts straight at token pairs,
        # which the format expresses as a leading empty field instead.
        raise CorpusFormatError(
            path, line_no, "line must start with a label field (possibly empty)"
        )
    try:
        labels = sorted(int(tok) for tok in label_field.split(",") if tok != "")
    except ValueError:
        raise CorpusFormatError(path, line_no, f"bad label field {label_field!r}") from None
    for lab in labels:
        if not 0 <= lab < num_labels:
            raise CorpusFormatError(
                path, line_no, f"label id {lab} outside [0, {num_labels})"
            )
    if len(set(labels)) != len(labels):
        raise CorpusFormatError(path, line_no, "duplicate label id")

    tokens: list[tuple[int, int]] = []
    for pair in fields[1:]:
        head, sep, tail = pair.partition(":")
        if not sep or not head or not tail:
            raise CorpusFormatError(path, line_no, f"bad token:count pair {pair!r}")
        try:
            token = int(head)
            cnt = _parse_count(tail)
        except ValueError as exc:
            raise CorpusFormatError(path, line_no, f"bad token:count pair {pair!r} ({exc})") from None
        if not 0 <= token < num_features:
            raise CorpusFormatError(
                path, line_no, f"token id {token} outside [0, {num_features})"
            )
        tokens.append((token, cnt))
    try:
        return make_document(doc_id, tokens, labels)
    except OverflowError:
        raise CorpusFormatError(path, line_no, "id or count exceeds the 64-bit range") from None
    except ValueError as exc:
        raise CorpusFormatError(path, line_no, str(exc)) from None


def write_corpus(
    path: str | Path, documents: list[Document], num_features: int, num_labels: int
) -> None:
    """Write documents in the corpus file format parsed by parse_corpus.

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
