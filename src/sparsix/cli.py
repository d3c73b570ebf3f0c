"""Command-line interface: train, predict, eval, sweep, verify.

Exit codes: 0 success, 1 validation error (bad flags, config, or input
files), 2 runtime failure, 3 verification failure (a check ran and failed,
including blob checksum mismatches).

Configuration is a flat key = value file; # starts a comment line, blank
lines are ignored, and relative paths are resolved against the config
file's directory.  The only environment override is SPARSIX_WORKERS, which
replaces the configured training worker count.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .codes import CodeConfig, binomial_chisquare, build_codebook, orthogonality_stats
from .corpus import (
    CorpusFormatError,
    make_separable_corpus,
    parse_corpus,
    read_block,
    read_header,
)
from .equivalence import (
    argmax_invariant,
    change_of_basis,
    cosine_deviation,
    random_orthonormal_basis,
    verify_deferred_equivalence,
)
from .index import build_index, bucket_loads
from .infer import AGGREGATION_MODES, InferParams, predict, predict_full
from .manifest import BlobChecksumError, ManifestError, load_ensemble, save_ensemble
from .metrics import evaluate
from .model import NonFiniteGradientError, grad_check, init_model
from .train import EngineConfig, TrainConfig, train_all

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

WORKERS_ENV = "SPARSIX_WORKERS"

logger = logging.getLogger(__name__)


class VerificationFailure(Exception):
    """A `verify` check ran and did not hold."""


# --- configuration ----------------------------------------------------------

CONFIG_KEYS = {
    "corpus": str,
    "eval_corpus": str,
    "out_dir": str,
    "num_chunks": int,
    "buckets_per_chunk": int,
    "feature_dim": int,
    "hidden_dim": int,
    "feature_mode": str,
    "code_seed": int,
    "feature_seed": int,
    "init_seed": int,
    "shuffle_seed": int,
    "epochs": int,
    "batch_size": int,
    "lr": float,
    "workers": int,
}

# Large-scale defaults; desk-scale configs override the sizes downward.
CONFIG_DEFAULTS = {
    "out_dir": "model",
    "num_chunks": 16,
    "buckets_per_chunk": 30000,
    "feature_dim": 100000,
    "hidden_dim": 4096,
    "feature_mode": "counts",
    "code_seed": 0,
    "feature_seed": 1,
    "init_seed": 2,
    "shuffle_seed": 3,
    "epochs": 10,
    "batch_size": 1000,
    "lr": 1e-3,
    "workers": 1,
}


def parse_config(path: str | Path) -> dict:
    """Read a flat key = value config file with typed, defaulted keys."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    values: dict = dict(CONFIG_DEFAULTS)
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](raw)
        except ValueError:
            raise ValueError(
                f"{path}:{line_no}: bad value {raw!r} for {key} "
                f"(expected {CONFIG_KEYS[key].__name__})"
            ) from None
    if "corpus" not in values:
        raise ValueError(f"{path}: missing required key 'corpus'")
    base = path.parent
    for key in ("corpus", "eval_corpus", "out_dir"):
        if key in values:
            values[key] = str((base / values[key]).resolve())
    env_workers = os.environ.get(WORKERS_ENV)
    if env_workers is not None:
        try:
            values["workers"] = int(env_workers)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env_workers!r}") from None
    return values


def _configs_from(values: dict, num_labels: int) -> tuple[CodeConfig, EngineConfig, TrainConfig]:
    code = CodeConfig(
        num_labels=num_labels,
        num_chunks=values["num_chunks"],
        buckets_per_chunk=values["buckets_per_chunk"],
        base_seed=values["code_seed"],
    )
    engine = EngineConfig(
        feature_dim=values["feature_dim"],
        hidden_dim=values["hidden_dim"],
        feature_mode=values["feature_mode"],
        feature_seed=values["feature_seed"],
        init_seed=values["init_seed"],
    )
    train = TrainConfig(
        epochs=values["epochs"],
        batch_size=values["batch_size"],
        lr=values["lr"],
        shuffle_seed=values["shuffle_seed"],
        workers=values["workers"],
    )
    return code, engine, train


# --- commands ---------------------------------------------------------------


def _stdout_guarded(write, *args) -> None:
    """Write to stdout; once its reader is gone (``| head -1``), write to /dev/null.

    The command runs on and returns its own exit code, as the Python docs' SIGPIPE note advises.
    """
    try:
        write(*args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print(line: str) -> None:
    _stdout_guarded(print, line)


def cmd_train(args: argparse.Namespace) -> int:
    values = parse_config(args.config)
    _, _, num_labels = read_header(values["corpus"])
    if num_labels < 1:
        raise ValueError("corpus declares zero labels; nothing to train")
    code, engine, train_cfg = _configs_from(values, num_labels)
    block = read_block(values["corpus"])
    cb = build_codebook(code)
    result = train_all(block, cb, engine, train_cfg)
    if result.skipped_unlabeled:
        _print(f"skipped {result.skipped_unlabeled} unlabeled documents")
    for chunk, curve in enumerate(result.loss_curves):
        _print(f"chunk {chunk} loss: " + " ".join(f"{x:.6f}" for x in curve))
    manifest_path = save_ensemble(result.ensemble, values["out_dir"], train_cfg)
    _print(str(manifest_path))
    return EXIT_OK


def _format_prediction(doc_id: int, labels: np.ndarray, scores: np.ndarray) -> str:
    pairs = " ".join(f"{l}:{s:.6f}" for l, s in zip(labels.tolist(), scores.tolist()))
    return f"{doc_id}\t{pairs}"


def cmd_predict(args: argparse.Namespace) -> int:
    ensemble, _ = load_ensemble(args.manifest)
    cb = build_codebook(ensemble.code_config)
    if args.mode == "sparse":
        params = InferParams(m=args.m, top_k=args.top_k, aggregation=args.aggregation)
        idx = build_index(cb)
    else:
        params = None
        idx = None
    totals = {"queries": 0, "candidates_retrieved": 0, "unique_candidates": 0, "scores_summed": 0}
    # Lines go to a sibling file that replaces --out only once every query is
    # served, so any failure leaves an existing --out as it was.  Mode "x" is
    # O_CREAT | O_EXCL at 0o666, so the umask sets the mode as a plain open would.
    out_path = Path(args.out)
    partial = out_path.with_name(f".{out_path.name}.{os.getpid()}.partial")
    out = partial.open("x", encoding="utf-8")
    try:
        with out:
            for doc in parse_corpus(args.corpus):
                if args.mode == "sparse":
                    pred = predict(ensemble, cb, idx, doc, params)
                else:
                    pred = predict_full(ensemble, cb, doc, args.top_k)
                out.write(_format_prediction(doc.doc_id, pred.labels, pred.scores) + "\n")
                totals["queries"] += 1
                totals["candidates_retrieved"] += pred.counters.candidates_retrieved
                totals["unique_candidates"] += pred.counters.unique_candidates
                totals["scores_summed"] += pred.counters.scores_summed
        if totals["queries"] == 0:
            raise ValueError("no queries in corpus")
        os.replace(partial, out_path)
    finally:
        partial.unlink(missing_ok=True)
    q = totals["queries"]
    _print(f"queries = {q}")
    _print(f"mean_candidates_retrieved = {totals['candidates_retrieved'] / q:.2f}")
    _print(f"mean_unique_candidates = {totals['unique_candidates'] / q:.2f}")
    _print(f"mean_scores_summed = {totals['scores_summed'] / q:.2f}")
    return EXIT_OK


def _parse_ks(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise ValueError(f"bad k list {raw!r}; expected comma-separated integers") from None
    if not ks or min(ks) < 1:
        raise ValueError(f"k list must contain positive integers, got {raw!r}")
    return ks


def cmd_eval(args: argparse.Namespace) -> int:
    ensemble, _ = load_ensemble(args.manifest)
    cb = build_codebook(ensemble.code_config)
    idx = build_index(cb)
    ks_precision = _parse_ks(args.ks_precision)
    ks_recall = _parse_ks(args.ks_recall)
    top_k = max(*ks_precision, *ks_recall)
    params = InferParams(m=args.m, top_k=top_k, aggregation=args.aggregation)
    testset = list(parse_corpus(args.corpus))
    report = evaluate(ensemble, idx, testset, params, ks_precision, ks_recall)
    _print(report.as_text())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    values = parse_config(args.config)
    if "eval_corpus" not in values:
        raise ValueError("sweep needs 'eval_corpus' in the config file")
    buckets_list = _parse_ks(args.buckets)
    chunks_list = _parse_ks(args.chunks)
    m_list = _parse_ks(args.m)
    _, _, num_labels = read_header(values["corpus"])
    block = read_block(values["corpus"])
    testset = list(parse_corpus(values["eval_corpus"]))

    rows = ["buckets\tchunks\tm\tp_at_1\tp_at_3\tp_at_5\tms_per_point\tstatus"]
    for b in buckets_list:
        for k in chunks_list:
            cell = dict(values, buckets_per_chunk=b, num_chunks=k)
            try:
                code, engine, train_cfg = _configs_from(cell, num_labels)
                cb = build_codebook(code)
                result = train_all(block, cb, engine, train_cfg)
                idx = build_index(cb)
            except Exception as exc:  # per-cell isolation: record, move on
                for m in m_list:
                    rows.append(f"{b}\t{k}\t{m}\t-\t-\t-\t-\terror: {exc}")
                continue
            for m in m_list:
                try:
                    params = InferParams(m=m, top_k=5)
                    report = evaluate(
                        result.ensemble, idx, testset, params,
                        ks_precision=(1, 3, 5), ks_recall=(5,),
                    )
                    rows.append(
                        f"{b}\t{k}\t{m}"
                        f"\t{report.precision_at[1]:.4f}"
                        f"\t{report.precision_at[3]:.4f}"
                        f"\t{report.precision_at[5]:.4f}"
                        f"\t{report.latency_ms['mean']:.3f}\tok"
                    )
                except Exception as exc:
                    rows.append(f"{b}\t{k}\t{m}\t-\t-\t-\t-\terror: {exc}")
    table = "\n".join(rows)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")
    else:
        _print(table)
    return EXIT_OK


# --- verification suite -----------------------------------------------------

# Pass bars of the checks, the same ones the acceptance tests hold
CHI_SQUARE_ALPHA = 0.001
GRAD_TOL = 1e-4
EQUIV_TOL = 1e-10
# Seed of every sampled instance: one fixed draw, so a verdict reproduces
VERIFY_SEED = 2026


def _check_code_orthogonality() -> str:
    cc = CodeConfig(num_labels=10**4, num_chunks=8, buckets_per_chunk=1000, base_seed=VERIFY_SEED)
    cb = build_codebook(cc)
    pairs = 10**5
    st = orthogonality_stats(cb, pairs, sample_seed=VERIFY_SEED + 1)
    p = 1.0 / cc.buckets_per_chunk
    target = cc.num_chunks * p
    se = (cc.num_chunks * p * (1 - p) / pairs) ** 0.5
    if abs(st.mean_dot - target) > 4 * se:
        raise VerificationFailure(
            f"mean dot {st.mean_dot:.6f} deviates from {target:.6f} by more than 4 SE"
        )
    stat, dof, pvalue = binomial_chisquare(st.histogram, p)
    if pvalue < CHI_SQUARE_ALPHA:
        raise VerificationFailure(
            f"dot histogram fails chi-square: p={pvalue:.5f} < alpha={CHI_SQUARE_ALPHA}"
        )
    return f"mean={st.mean_dot:.6f} (target {target:.6f}), chi2 p={pvalue:.3f}"


def _check_index_balance() -> str:
    cc = CodeConfig(
        num_labels=3 * 10**4, num_chunks=8, buckets_per_chunk=1000, base_seed=VERIFY_SEED
    )
    idx = build_index(build_codebook(cc))
    worst = max(int(bucket_loads(idx, k).max()) for k in range(cc.num_chunks))
    if worst > 60:
        raise VerificationFailure(f"max bucket load {worst} exceeds 60")
    return f"max load {worst} (bound 60, mean 30)"


def _check_gradients() -> str:
    rng = np.random.Generator(np.random.PCG64(VERIFY_SEED))
    worst = 0.0
    for trial in range(20):
        model = init_model(20, 8, 10, init_seed=int(rng.integers(2**32)))
        nnz = int(rng.integers(1, 6))
        idxs = np.sort(rng.choice(20, size=nnz, replace=False))
        vals = rng.integers(1, 4, size=nnz).astype(np.float64)
        x = sp.csr_matrix((vals, idxs, [0, nnz]), shape=(1, 20))
        y = np.zeros((1, 10))
        y[0, rng.choice(10, size=int(rng.integers(1, 4)), replace=False)] = 1.0
        rel = grad_check(model, x, y, step=1e-4, num_coords=200, seed=trial)
        worst = max(worst, rel)
    if worst > GRAD_TOL:
        raise VerificationFailure(f"worst relative gradient error {worst:.3e} > {GRAD_TOL:.1e}")
    return f"worst relative error {worst:.3e} over 20 instances"


def _check_basis_equivalence() -> str:
    worst = 0.0
    for n in (32, 128):
        a = random_orthonormal_basis(n, VERIFY_SEED + n)
        bm = random_orthonormal_basis(n, VERIFY_SEED + n + 1)
        p = change_of_basis(a, bm).matrix
        ortho = float(np.abs(p @ p.T - np.eye(n)).max())
        recon = float(np.abs(p @ bm.columns - a.columns).max())
        x = np.random.Generator(np.random.PCG64(VERIFY_SEED + 2 * n)).standard_normal((100, n))
        dev = verify_deferred_equivalence(x, a, bm)
        cos = cosine_deviation(x, a, bm)
        worst = max(worst, ortho, recon, dev, cos)
        if not argmax_invariant(x, a, bm):
            raise VerificationFailure(f"argmax changed under deferred rotation at n={n}")
    if worst > EQUIV_TOL:
        raise VerificationFailure(f"max deviation {worst:.3e} > {EQUIV_TOL:.1e}")
    return f"max deviation {worst:.3e} at n in (32, 128)"


def _tiny_trained_engine() -> tuple:
    train_docs, test_docs, num_features = make_separable_corpus(
        num_labels=200,
        docs_per_label=3,
        test_docs_per_label=1,
        noise_vocab=200,
        seed=VERIFY_SEED,
    )
    code = CodeConfig(num_labels=200, num_chunks=4, buckets_per_chunk=32, base_seed=VERIFY_SEED)
    engine = EngineConfig(
        feature_dim=512, hidden_dim=16, feature_seed=VERIFY_SEED + 1, init_seed=VERIFY_SEED + 2
    )
    cfg = TrainConfig(epochs=3, batch_size=100, lr=5e-3, shuffle_seed=VERIFY_SEED + 3)
    cb = build_codebook(code)
    result = train_all(train_docs, cb, engine, cfg)
    return result.ensemble, cb, build_index(cb), test_docs


def _check_retrieval_equivalence() -> str:
    ensemble, cb, idx, queries = _tiny_trained_engine()
    b = cb.config.buckets_per_chunk
    params = InferParams(m=b, top_k=10)
    for doc in queries[:100]:
        sparse = predict(ensemble, cb, idx, doc, params)
        full = predict_full(ensemble, cb, doc, top_k=10)
        if not (
            np.array_equal(sparse.labels, full.labels)
            and np.array_equal(sparse.scores, full.scores)
        ):
            raise VerificationFailure(
                f"m=B retrieval disagrees with brute force on query {doc.doc_id}"
            )
    return f"m=B matches brute force exactly on {min(len(queries), 100)} queries"


def _check_manifest(manifest_path: str) -> str:
    ensemble, _ = load_ensemble(manifest_path)
    again, _ = load_ensemble(manifest_path)
    for m1, m2 in zip(ensemble.models, again.models):
        for p1, p2 in zip(m1.params(), m2.params()):
            if not np.array_equal(p1, p2):
                raise VerificationFailure("reload is not bit-stable")
    return f"{len(ensemble.models)} blobs checksum-verified, reload bit-stable"


def cmd_verify(args: argparse.Namespace) -> int:
    checks = [
        ("code-orthogonality", _check_code_orthogonality),
        ("index-balance", _check_index_balance),
        ("gradient-check", _check_gradients),
        ("basis-equivalence", _check_basis_equivalence),
        ("retrieval-equivalence", _check_retrieval_equivalence),
    ]
    if args.manifest:
        checks.append(("manifest-checksums", lambda: _check_manifest(args.manifest)))
    failures = 0
    for name, check in checks:
        t0 = time.perf_counter()
        try:
            detail = check()
            _print(f"PASS {name}: {detail} ({time.perf_counter() - t0:.2f}s)")
        except (VerificationFailure, BlobChecksumError) as exc:
            failures += 1
            _print(f"FAIL {name}: {exc}")
    if failures:
        _print(f"{failures} of {len(checks)} checks failed")
        return EXIT_VERIFY
    _print(f"all {len(checks)} checks passed")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap to the validation code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparsix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an engine from a config file")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="batch predictions for a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="predictions file to write")
    p.add_argument("--m", type=int, default=50, help="buckets kept per chunk")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--mode", choices=("sparse", "full"), default="sparse")
    p.add_argument("--aggregation", choices=AGGREGATION_MODES, default=AGGREGATION_MODES[0])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="ranking metrics over a labeled corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--ks-precision", default="1,5,10")
    p.add_argument("--ks-recall", default="100")
    p.add_argument("--aggregation", choices=AGGREGATION_MODES, default=AGGREGATION_MODES[0])
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid ablation over buckets/chunks/m")
    p.add_argument("--config", required=True)
    p.add_argument("--buckets", required=True, help="comma-separated B values")
    p.add_argument("--chunks", required=True, help="comma-separated K values")
    p.add_argument("--m", required=True, help="comma-separated m values")
    p.add_argument("--out", help="write the TSV table here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="self-checking verification suite")
    p.add_argument("--manifest", help="also checksum-verify this trained engine")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except BlobChecksumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, ManifestError, CorpusFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    finally:
        # a block-buffered stdout meets a closed reader only here, or at exit
        _stdout_guarded(sys.stdout.flush)


if __name__ == "__main__":
    sys.exit(main())
