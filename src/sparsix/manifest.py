"""Engine persistence: a JSON manifest plus checksummed binary model blobs.

The manifest records every seed and dimension the pipeline consumed, which
is all it takes to rebuild the codebook, the inverted index, and the feature
hashing exactly; only the learned parameters need binary blobs.  Reloading
therefore reproduces the original scoring function bit for bit.

Blobs are referenced by a path relative to the manifest's directory, which
must stay inside it, together with a sha256 checksum of 64 lowercase hex
digits.  On load each blob is mapped read-only and the checksum of the
mapped bytes verified; then its header must give the manifest's chunk, init
seed and dimensions before :func:`model.load_model` parses those same bytes
in place.  So what is checked is what serves: each model's W1 is a read-only
view of its blob's map, which lives, holding a file descriptor, as long as
the model.  A blob holding more or fewer bytes than its header claims is
rejected.  Saving writes each blob, then manifest.json, through
:func:`corpus.replacing`: each file is replaced whole, so a reader meets the old
one or the new one, an engine loaded from that directory keeps serving the
bytes it mapped, and the manifest names only blobs already written.  Seeds are
stored as JSON integers (they can exceed 2^53; the reference reader is Python,
which keeps them exact).  A manifest's version is read before any other field:
one of another version fails with that, whatever else it holds.

Two loaders share one prologue (the manifest, then the memory check) and one
loader of models, which checks each blob as above.  :func:`load_ensemble`
reads the blobs in turn.  :func:`load_serving`, which ``predict`` and
``eval`` use, reads them on one helper thread while the calling thread builds
the codebook and the index, and then on both threads, in manifest order from
one queue.  Either raises the first bad blob's error in manifest order.
"""
from __future__ import annotations

import hashlib
import json
import mmap
import posixpath
import re
import threading
from collections import deque
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .codes import CodeConfig, LabelCodebook, build_codebook, codebook_bytes
from .corpus import MISSING_ERRNOS, replacing
from .hashing import check_ints
from .index import InvertedIndex, build_index, index_bytes
from .infer import block_rows, check_m, embed_bytes, query_bytes
from .model import PARAM_DTYPE, ChunkModel, blob_header
from .model import ChunkEnsemble, EngineConfig, TrainConfig, check_dims, check_fits
from .model import forward_bytes, load_model, num_params, save_model

# Version 2 stores W1 (F, H), the order a model serves it in; version 1 stored it (H, F)
FORMAT_VERSION = 2

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
        with replacing(out_dir / name, binary=True) as out:  # a loaded engine keeps its map
            out.write(data)
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
    with replacing(manifest_path) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return manifest_path


def load_manifest(manifest_path: str | Path) -> Manifest:
    """Parse and validate manifest.json without touching the blobs."""
    manifest_path = Path(manifest_path)
    # json.loads raises RecursionError on input nested past the interpreter's depth
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ManifestError(f"unreadable manifest {manifest_path}: {exc}") from exc
    try:
        # the version first: a manifest of another version fails with it, whatever its fields
        version = doc["format_version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise ManifestError(
                f"unsupported manifest version {version!r}, "
                f"this build reads version {FORMAT_VERSION}"
            )
        return Manifest(
            format_version=version,
            created_at=doc["created_at"],
            code_config=CodeConfig(**doc["code_config"]),
            engine=EngineConfig(**doc["engine"]),
            train_config=(
                None if doc["train_config"] is None else TrainConfig(**doc["train_config"])
            ),
            blobs=tuple(BlobRef(**b) for b in doc["blobs"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ManifestError):
            raise
        raise ManifestError(f"malformed manifest {manifest_path}: {exc}") from exc


def _loading_bytes(manifest: Manifest) -> int:
    """Peak bytes of loading an engine and serving its first block of queries.

    Loading holds each of the K models' b1, W2 and b2, and builds the
    codebook and the index meanwhile.  W1 is not counted: it is a read-only
    map of its blob, whose clean pages the kernel can drop and read again.
    The tables' build scratch, at most 28 bytes a label, is less than the
    first query's, which is not yet held.  Serving then embeds a block of
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
    h = manifest.engine.hidden_dim
    models = PARAM_DTYPE.itemsize * cc.num_chunks * num_params(0, h, b)  # all but W1
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


def _map_blob(blob_path: Path) -> mmap.mmap | bytes:
    """The blob file's bytes, mapped read-only; the file itself is closed again.

    A zero-byte file, which cannot be mapped, is ``b""``: its checksum fails.
    """
    try:
        file = open(blob_path, "rb")
    except OSError as exc:
        if exc.errno not in MISSING_ERRNOS:
            raise
        raise BlobChecksumError(f"missing model blob {blob_path}") from exc
    with file:
        try:
            return mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # mmap refuses an empty file
            return b""


def _load_blob(base: Path, ref: BlobRef, manifest: Manifest) -> ChunkModel:
    """Map one blob, verify its checksum, check its header against the manifest,
    then parse it: the model's W1 is a view of the map."""
    blob_path = base / ref.path
    data = _map_blob(blob_path)
    try:
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
    except BaseException:
        if isinstance(data, mmap.mmap):
            data.close()  # now, rather than when the error's traceback goes
        raise
    return load_model(data)


class _ModelLoad:
    """An engine's models, loaded from their blobs by one thread or two.

    Each thread that calls :meth:`run` takes blobs in manifest order from one
    shared queue.  A bad blob's error is kept in its chunk's place and empties
    the queue: every earlier blob has been taken by then, so :meth:`ensemble`
    raises the first bad blob in manifest order, as reading them in turn would.
    """

    def __init__(self, manifest_path: Path, manifest: Manifest) -> None:
        self._base, self._manifest = manifest_path.parent, manifest
        self._pending = deque(manifest.blobs)  # popleft is atomic, whichever thread calls it
        self._loaded: list = [None] * len(manifest.blobs)  # a model or the error, per chunk

    def run(self) -> None:
        """Load blobs until none is left to take."""
        while True:
            try:
                ref = self._pending.popleft()
            except IndexError:
                return
            try:
                model = _load_blob(self._base, ref, self._manifest)
            except BaseException as exc:  # raised by ensemble(), in the calling thread
                self._pending.clear()
                model = exc
            self._loaded[ref.chunk] = model

    def ensemble(self) -> ChunkEnsemble:
        """The loaded engine once every thread has stopped; the first bad blob raises."""
        loaded, self._loaded = self._loaded, []  # emptied, as the error's traceback holds self
        for model in loaded:
            if isinstance(model, BaseException):
                loaded.clear()  # the traceback holds this frame: the maps go now
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
    queue.  Blob hashing runs mostly outside the GIL, the table builds inside
    it.  The first bad blob in manifest order raises here, as
    :func:`load_ensemble` would raise it, and the helper has ended by the
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
