"""Engine persistence: a JSON manifest plus checksummed binary model blobs.

The manifest records every seed and dimension the pipeline consumed, which
is all it takes to rebuild the codebook, the inverted index, and the feature
hashing exactly; only the learned parameters need binary blobs.  Reloading
therefore reproduces the original scoring function bit for bit.

Blobs are referenced by a path relative to the manifest's directory, which
must stay inside it, together with a sha256 checksum of 64 lowercase hex
digits.  Each blob is read once on load and its checksum verified; then its
header must give the manifest's chunk, init seed and dimensions before
:func:`model.load_model` parses those same bytes in place.  A blob holding
more or fewer bytes than its header claims is rejected.  Seeds are stored as
JSON integers (they can exceed 2^53; the reference reader is Python, which
keeps them exact).

Two loaders share one prologue (the manifest, then the memory check) and one
loader of models, which checks each blob as above and copies every chunk's
W1 into one ``(K, F, H)`` array.  :func:`load_ensemble` reads the blobs in
turn.  :func:`load_serving`, which ``predict`` and ``eval`` use, reads them on
one helper thread while the calling thread builds the codebook and the
index, and then on both threads, in manifest order from one queue.  Either
raises the first bad blob's error in manifest order.
"""
from __future__ import annotations

import hashlib
import json
import posixpath
import re
import threading
from collections import deque
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .codes import CodeConfig, LabelCodebook, build_codebook, codebook_bytes
from .corpus import MISSING_ERRNOS
from .hashing import check_ints
from .index import InvertedIndex, build_index, index_bytes
from .infer import block_rows, check_m, embed_bytes, query_bytes
from .model import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ChunkModel, blob_header, huge_paged_empty
from .model import ChunkEnsemble, EngineConfig, TrainConfig, check_dims, check_fits
from .model import forward_bytes, load_model, model_bytes, save_model

FORMAT_VERSION = 1

# Manifests written while Adam's constants were settings record them in
# train_config; such a manifest loads if it holds these same values
_FIXED_ADAM_KEYS = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "adam_eps": ADAM_EPS}
_SHA256 = re.compile("[0-9a-f]{64}")
# Loading's Python objects beside its arrays, with room to spare (see _loading_bytes)
_OBJECT_BYTES = 32 * 1024
_CHUNK_OBJECT_BYTES = 2 * 1024


class ManifestError(ValueError):
    """Unreadable, mis-versioned, or internally inconsistent manifest."""


class BlobChecksumError(RuntimeError):
    """A model blob's content does not match its recorded checksum."""


@dataclass(frozen=True)
class BlobRef:
    chunk: int
    path: str  # relative to the manifest directory, and inside it
    sha256: str

    def __post_init__(self) -> None:
        check_ints(self, chunk=(0, None))
        path = self.path if isinstance(self.path, str) else ""
        if posixpath.isabs(path) or posixpath.normpath(path).split("/")[0] in (".", ".."):
            raise ManifestError(
                f"blob path must be relative and inside the manifest's directory, "
                f"got {self.path!r}"
            )
        if not (isinstance(self.sha256, str) and _SHA256.fullmatch(self.sha256)):
            raise ManifestError(f"blob sha256 must be 64 lowercase hex digits, got {self.sha256!r}")


@dataclass(frozen=True)
class Manifest:
    """Everything needed to reconstruct a trained engine."""

    format_version: int
    created_at: str
    code_config: CodeConfig
    engine: EngineConfig
    train_config: TrainConfig | None
    blobs: tuple[BlobRef, ...]

    def __post_init__(self) -> None:
        if type(self.format_version) is not int or self.format_version != FORMAT_VERSION:
            raise ManifestError(
                f"unsupported manifest version {self.format_version!r}, "
                f"this build reads version {FORMAT_VERSION}"
            )
        if len(self.blobs) != self.code_config.num_chunks:
            raise ManifestError("one blob per chunk required")
        if [b.chunk for b in self.blobs] != list(range(len(self.blobs))):
            raise ManifestError("blob list must cover chunks 0..K-1 in order")


def save_ensemble(
    ensemble: ChunkEnsemble,
    out_dir: str | Path,
    train_config: TrainConfig | None = None,
) -> Path:
    """Write model blobs and manifest.json into out_dir; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    blobs = []
    for model in ensemble.models:
        name = f"chunk_{model.chunk:04d}.bin"
        data = save_model(model)
        (out_dir / name).write_bytes(data)
        blobs.append(BlobRef(model.chunk, name, hashlib.sha256(data).hexdigest()))
        del data  # else this blob outlives the next one's build

    doc = {
        "format_version": FORMAT_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "code_config": asdict(ensemble.code_config),
        "engine": asdict(ensemble.engine),
        "train_config": asdict(train_config) if train_config is not None else None,
        "blobs": [asdict(b) for b in blobs],
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def _train_config(fields: dict) -> TrainConfig:
    """A TrainConfig from its manifest entry, a JSON object, accepting Adam's fixed keys."""
    fields = {**fields}  # a copy, and a TypeError for anything but a mapping
    for key, fixed in _FIXED_ADAM_KEYS.items():
        if key in fields and fields.pop(key) != fixed:
            raise ManifestError(
                f"train_config {key} must be {fixed!r}, the constant training uses"
            )
    return TrainConfig(**fields)


def load_manifest(manifest_path: str | Path) -> Manifest:
    """Parse and validate manifest.json without touching the blobs."""
    manifest_path = Path(manifest_path)
    # json.loads raises RecursionError on input nested past the interpreter's depth
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ManifestError(f"unreadable manifest {manifest_path}: {exc}") from exc
    try:
        return Manifest(
            format_version=doc["format_version"],
            created_at=doc["created_at"],
            code_config=CodeConfig(**doc["code_config"]),
            engine=EngineConfig(**doc["engine"]),
            train_config=(
                None if doc["train_config"] is None else _train_config(doc["train_config"])
            ),
            blobs=tuple(BlobRef(**b) for b in doc["blobs"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ManifestError):
            raise
        raise ManifestError(f"malformed manifest {manifest_path}: {exc}") from exc


def _loading_bytes(manifest: Manifest) -> int:
    """Peak bytes of loading an engine and serving its first block of queries.

    Loading holds K models and the two blobs that :func:`load_serving`'s two
    threads may each be parsing, and builds the codebook and the index
    meanwhile.  Their build scratch, at most 28 bytes a label, is less than
    the first query's, which is not yet held.  Serving then embeds a block of
    ``infer.block_rows`` queries, one ``forward`` at a time, and searches
    each; ``forward``'s block of outputs is counted beside the probabilities
    it is written into.  Each module that allocates one of these counts its
    bytes.  Beside the arrays, loading makes Python objects: the parsed
    manifest, the helper thread, and each chunk's blob reference and model.
    ``tracemalloc`` reads about 12 KiB and 1.2 KiB a chunk for them, which
    ``_OBJECT_BYTES`` and ``_CHUNK_OBJECT_BYTES`` cover.
    """
    cc = manifest.code_config
    b = cc.buckets_per_chunk
    models = (cc.num_chunks + 2) * model_bytes(manifest.engine, b)
    rows = block_rows(cc)
    embedding = forward_bytes(manifest.engine, b, rows) + embed_bytes(cc, rows)
    serving = codebook_bytes(cc) + index_bytes(cc) + embedding
    objects = _OBJECT_BYTES + cc.num_chunks * _CHUNK_OBJECT_BYTES
    return models + serving + query_bytes(cc) + objects


def _checked_manifest(manifest_path: Path) -> Manifest:
    """The manifest, once it is known that loading its engine fits in memory."""
    manifest = load_manifest(manifest_path)
    check_fits(_loading_bytes(manifest), f"loading {manifest_path}")
    return manifest


def _load_blob(base: Path, ref: BlobRef, manifest: Manifest, W1: np.ndarray) -> ChunkModel:
    """Read one blob, verify its checksum, check its header against the manifest,
    then parse it, copying its W1 into ``W1``."""
    blob_path = base / ref.path
    try:
        data = blob_path.read_bytes()
    except OSError as exc:
        if exc.errno not in MISSING_ERRNOS:
            raise
        raise BlobChecksumError(f"missing model blob {blob_path}") from exc
    actual = hashlib.sha256(data).hexdigest()
    if actual != ref.sha256:
        raise BlobChecksumError(
            f"checksum mismatch for {blob_path}: "
            f"manifest says {ref.sha256[:12]}…, file is {actual[:12]}…"
        )
    chunk, f, h, b, init_seed = blob_header(data)
    if chunk != ref.chunk:
        raise ManifestError(f"blob {ref.path} holds chunk {chunk}, manifest says {ref.chunk}")
    seed = manifest.engine.chunk_init_seed(ref.chunk)
    if init_seed != seed:
        raise ManifestError(
            f"blob {ref.path} records init_seed {init_seed}, "
            f"manifest's engine gives chunk {ref.chunk} {seed}"
        )
    check_dims(chunk, (f, h, b), manifest.engine, manifest.code_config.buckets_per_chunk)
    return load_model(data, W1)


class _ModelLoad:
    """An engine's models, loaded from its blobs by one thread or two.

    Every chunk's W1 is a slice of one C-contiguous ``(K, F, H)`` array, so an
    engine's W1 pages are one allocation, whose whole 2 MiB spans fault in as
    huge pages when the blobs are copied in and stay so while the engine
    serves (:func:`model.huge_paged_empty`).  Each thread that calls
    :meth:`run` takes blobs in manifest order from one shared queue.  A bad
    blob's error is kept in its chunk's place and empties the queue: every
    earlier blob has been taken by then, so :meth:`ensemble` raises the first
    bad blob in manifest order, as reading them in turn would.
    """

    def __init__(self, manifest_path: Path, manifest: Manifest) -> None:
        cc, engine = manifest.code_config, manifest.engine
        self._base, self._manifest = manifest_path.parent, manifest
        self._W1 = huge_paged_empty((cc.num_chunks, engine.feature_dim, engine.hidden_dim))
        self._pending = deque(manifest.blobs)  # popleft is atomic, whichever thread calls it
        self._loaded: list = [None] * cc.num_chunks  # a model or the error, per chunk

    def run(self) -> None:
        """Load blobs until none is left to take."""
        while True:
            try:
                ref = self._pending.popleft()
            except IndexError:
                return
            try:
                model = _load_blob(self._base, ref, self._manifest, self._W1[ref.chunk])
            except BaseException as exc:  # raised by ensemble(), in the calling thread
                self._pending.clear()
                model = exc
            self._loaded[ref.chunk] = model

    def ensemble(self) -> ChunkEnsemble:
        """The loaded engine once every thread has stopped; the first bad blob raises."""
        loaded, self._loaded = self._loaded, []  # emptied, as the error's traceback holds self
        for model in loaded:
            if isinstance(model, BaseException):
                raise model
        cc, engine = self._manifest.code_config, self._manifest.engine
        return ChunkEnsemble(code_config=cc, engine=engine, models=loaded)


def load_ensemble(manifest_path: str | Path) -> tuple[ChunkEnsemble, Manifest]:
    """Load a trained engine; each blob is checksum-verified, checked against the
    manifest, then parsed, one at a time in manifest order.

    An engine whose models would not fit in the machine's memory fails, from
    its manifest alone, before any blob is read.
    """
    manifest_path = Path(manifest_path)
    manifest = _checked_manifest(manifest_path)
    load = _ModelLoad(manifest_path, manifest)
    load.run()
    return load.ensemble(), manifest


def load_serving(
    manifest_path: str | Path, index: bool, m: int | None = None
) -> tuple[ChunkEnsemble, LabelCodebook, InvertedIndex | None]:
    """Load a trained engine with its codebook and, if ``index``, its inverted index.

    The prologue is :func:`load_ensemble`'s: the manifest, then the memory
    check, before anything is read or built.  An ``m`` (buckets kept per
    chunk) above the manifest's B fails there too.  Then one helper thread
    loads blobs while this thread builds the codebook and the index, and this
    thread loads blobs too once the tables are built: both take them from one
    queue.  Blob reading, hashing and copying run mostly outside the GIL, the
    table builds inside it.  The first bad blob in manifest order raises here,
    as :func:`load_ensemble` would raise it, and the helper has ended by the
    time this returns or raises.  A plain ``threading.Thread`` rather than an
    executor: ``concurrent.futures`` would add its import, and that of
    ``logging``, to every process that imports this module.
    """
    manifest_path = Path(manifest_path)
    manifest = _checked_manifest(manifest_path)
    if m is not None:
        check_m(m, manifest.code_config.buckets_per_chunk)
    load = _ModelLoad(manifest_path, manifest)
    helper = threading.Thread(target=load.run)
    helper.start()
    try:
        cb = build_codebook(manifest.code_config)
        idx = build_index(cb) if index else None
        load.run()
    finally:
        helper.join()
    return load.ensemble(), cb, idx
