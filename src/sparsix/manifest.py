"""Engine persistence: a JSON manifest plus checksummed binary model blobs.

The manifest records every seed and dimension the pipeline consumed, which
is all it takes to rebuild the codebook, the inverted index, and the feature
hashing exactly; only the learned parameters need binary blobs.  Reloading
therefore reproduces the original scoring function bit for bit.

Blobs are referenced by a path relative to the manifest's directory, which
must stay inside it, together with a sha256 checksum of 64 lowercase hex
digits.  Each blob is read once on load and its checksum verified before
:func:`model.load_model` parses those same bytes in place; a blob holding more
or fewer bytes than its header claims is rejected.  Seeds are stored as JSON
integers (they can exceed 2^53; the reference reader is Python, which keeps
them exact).
"""
from __future__ import annotations

import errno
import hashlib
import json
import posixpath
import re
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .codes import CodeConfig, codebook_bytes
from .hashing import check_ints
from .index import index_bytes
from .infer import query_bytes
from .model import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ChunkModel, load_model, model_bytes
from .model import ChunkEnsemble, EngineConfig, TrainConfig, check_fits, save_model

FORMAT_VERSION = 1

# Manifests written while Adam's constants were settings record them in
# train_config; such a manifest loads if it holds these same values
_FIXED_ADAM_KEYS = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "adam_eps": ADAM_EPS}
_SHA256 = re.compile("[0-9a-f]{64}")
# a path the file system cannot name, or names as a directory, names no file:
# a missing blob here, and a missing corpus to the CLI
_MISSING = (errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.ENAMETOOLONG)


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
    """A TrainConfig from its manifest entry, accepting Adam's fixed keys."""
    fields = dict(fields)
    for key, fixed in _FIXED_ADAM_KEYS.items():
        if key in fields and fields.pop(key) != fixed:
            raise ManifestError(
                f"train_config {key} must be {fixed!r}, the constant training uses"
            )
    return TrainConfig(**fields)


def load_manifest(manifest_path: str | Path) -> Manifest:
    """Parse and validate manifest.json without touching the blobs."""
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"unreadable manifest {manifest_path}: {exc}") from exc
    try:
        return Manifest(
            format_version=doc["format_version"],
            created_at=doc["created_at"],
            code_config=CodeConfig(**doc["code_config"]),
            engine=EngineConfig(**doc["engine"]),
            train_config=(
                _train_config(doc["train_config"]) if doc["train_config"] else None
            ),
            blobs=tuple(BlobRef(**b) for b in doc["blobs"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ManifestError):
            raise
        raise ManifestError(f"malformed manifest {manifest_path}: {exc}") from exc


def _loading_bytes(manifest: Manifest) -> int:
    """Peak bytes of loading an engine and serving its first query.

    :func:`load_ensemble` holds K models and the one blob it parses; every
    serving command then builds the codebook and the index and serves queries.
    Each module that allocates one of these counts its bytes.
    """
    cc = manifest.code_config
    model = model_bytes(manifest.engine, cc.buckets_per_chunk)
    return (cc.num_chunks + 1) * model + codebook_bytes(cc) + index_bytes(cc) + query_bytes(cc)


def load_ensemble(manifest_path: str | Path) -> tuple[ChunkEnsemble, Manifest]:
    """Load a trained engine; each blob is checksum-verified, then parsed.

    An engine whose models would not fit in the machine's memory fails, from
    its manifest alone, before any blob is read.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    check_fits(_loading_bytes(manifest), f"loading {manifest_path}")
    base = manifest_path.parent
    models: list[ChunkModel] = []
    for ref in manifest.blobs:
        blob_path = base / ref.path
        try:
            data = blob_path.read_bytes()
        except OSError as exc:
            if exc.errno not in _MISSING:
                raise
            raise BlobChecksumError(f"missing model blob {blob_path}") from exc
        actual = hashlib.sha256(data).hexdigest()
        if actual != ref.sha256:
            raise BlobChecksumError(
                f"checksum mismatch for {blob_path}: "
                f"manifest says {ref.sha256[:12]}…, file is {actual[:12]}…"
            )
        model = load_model(data)
        if model.chunk != ref.chunk:
            raise ManifestError(
                f"blob {ref.path} holds chunk {model.chunk}, manifest says {ref.chunk}"
            )
        seed = manifest.engine.chunk_init_seed(ref.chunk)
        if model.init_seed != seed:
            raise ManifestError(
                f"blob {ref.path} records init_seed {model.init_seed}, "
                f"manifest's engine gives chunk {ref.chunk} {seed}"
            )
        models.append(model)
    ensemble = ChunkEnsemble(
        code_config=manifest.code_config, engine=manifest.engine, models=models
    )
    return ensemble, manifest
