"""Command-line interface: train, predict, eval, sweep, verify.

Exit codes: 0 success, 1 validation error (bad flags, config, or input
files), 2 runtime failure, 3 verification failure (a check ran and failed,
including blob checksum mismatches).

Configuration is a flat key = value file; # starts a comment line, blank
lines are ignored, a key may be set only once, and relative paths are
resolved against the config file's directory.  The only environment override
is SPARSIX_WORKERS, which replaces the configured training worker count.

Every text input meets the corpus format's text rules: an integer in a
config file, in SPARSIX_WORKERS, in an integer flag or in a k list is read by
``corpus.decimal`` (ASCII decimal digits only), a float in a config file by
``corpus.ascii_float`` (ASCII, no ``_``), and a config line holding a byte
that is not UTF-8 fails at ``<config>:<line>`` by ``corpus.check_utf8``.

Only the commands that train (train, sweep, verify) import the training code
and SciPy; predict and eval start without them.  Every command runs NumPy's
OpenBLAS on one thread, so its output does not depend on the host's cores
(``main`` gives an in-process caller its own count back), and predict embeds
its queries a block at a time (``infer.predict_block``).

An output file (predict's ``--out``, eval's ``--json``, sweep's ``--out``) is
claimed before any work and replaces its path only once the command succeeds,
by ``corpus.replacing``; an error names the path, never the hidden sibling.
"""
from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path

import numpy as np

from .codes import CodeConfig, binomial_chisquare, build_codebook, orthogonality_stats
from .corpus import (
    ascii_float,
    check_utf8,
    decimal,
    make_separable_corpus,
    parse_corpus,
    read_block,
    read_header,
    replacing,
)
from .equivalence import (
    argmax_invariant,
    change_of_basis,
    cosine_deviation,
    random_orthonormal_basis,
    verify_deferred_equivalence,
)
from .features import DocBlock
from .index import build_index, bucket_loads
from .infer import AGGREGATION_MODES, InferParams, block_rows, predict, predict_block
from .infer import predict_full
from .manifest import BlobChecksumError, load_ensemble, load_manifest, load_serving, save_ensemble
from .metrics import evaluate
from .model import EngineConfig, NonFiniteGradientError, TrainConfig, openblas_threads
from .model import grad_check, init_model

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

WORKERS_ENV = "SPARSIX_WORKERS"


class VerificationFailure(Exception):
    """A `verify` check ran and did not hold."""


# --- configuration ----------------------------------------------------------

# Each key's type and default; None means unset.  Large-scale defaults, which
# desk-scale configs override downward.
CONFIG_KEYS = {
    "corpus": (str, None),
    "eval_corpus": (str, None),
    "out_dir": (str, "model"),
    "num_chunks": (int, 16),
    "buckets_per_chunk": (int, 30000),
    "feature_dim": (int, 100000),
    "hidden_dim": (int, 4096),
    "feature_mode": (str, "counts"),
    "code_seed": (int, 0),
    "feature_seed": (int, 1),
    "init_seed": (int, 2),
    "shuffle_seed": (int, 3),
    "epochs": (int, 10),
    "batch_size": (int, 1000),
    "lr": (float, 1e-3),
    "workers": (int, 1),
}
_DEFAULTS = {key: default for key, (_, default) in CONFIG_KEYS.items() if default is not None}


def _configs(values: dict, num_labels: int) -> tuple[CodeConfig, EngineConfig, TrainConfig]:
    """The code, engine and train configs of config ``values``; each checks its fields' ranges."""
    try:
        code = CodeConfig(
            num_labels, values["num_chunks"], values["buckets_per_chunk"], values["code_seed"]
        )
    except ValueError as exc:  # CodeConfig's base_seed is the config's code_seed
        raise ValueError(str(exc).replace("base_seed", "code_seed")) from None
    # every field of these two configs is a config key of the same name
    engine, train_cfg = (
        cls(**{f.name: values[f.name] for f in fields(cls)}) for cls in (EngineConfig, TrainConfig)
    )
    return code, engine, train_cfg


def parse_config(path: str | Path) -> dict:
    """Read a flat key = value config file with typed, defaulted keys.

    A value of the wrong type or out of its config's range fails at its line.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    values = dict(_DEFAULTS)
    set_on: dict[str, int] = {}  # the line that set each key
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    # a line ends where a corpus line does: at "\n", after read_text's newline translation
    for line_no, line in enumerate(text.split("\n"), 1):
        check_utf8(path, line_no, line)
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
        if key in set_on:
            raise ValueError(f"{path}:{line_no}: {key} is already set on line {set_on[key]}")
        set_on[key] = line_no
        kind = CONFIG_KEYS[key][0]
        try:
            values[key] = {int: decimal, float: ascii_float}.get(kind, kind)(raw)
        except ValueError:
            raise ValueError(
                f"{path}:{line_no}: bad value {raw!r} for {key} (expected {kind.__name__})"
            ) from None
        try:  # the value among the defaults, so only its own range can fail
            _configs({**_DEFAULTS, key: values[key]}, num_labels=1)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    if "corpus" not in values:
        raise ValueError(f"{path}: missing required key 'corpus'")
    base = path.parent
    for key in ("corpus", "eval_corpus", "out_dir"):
        if key in values:
            values[key] = str((base / values[key]).resolve())
    env_workers = os.environ.get(WORKERS_ENV)
    if env_workers is not None:
        try:
            values["workers"] = decimal(env_workers.strip())
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env_workers!r}") from None
    return values


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
    # flushed here, where a closed reader is guarded: a training pool flushes
    # stdout unguarded before it starts a worker
    _stdout_guarded(print, line)
    _stdout_guarded(sys.stdout.flush)


def _train(
    values: dict, num_labels: int, read: Callable[[], DocBlock], out_dir: str | None = None
) -> tuple:
    """Train from config ``values``: the configs first, so a bad setting fails before
    ``read()`` reads the corpus, then the memory check, the codebook and the chunks.

    ``out_dir``, if given, is created once every check has passed, before any chunk
    trains.  Returns the ``TrainResult``, the codebook and the train config.
    """
    from .train import check_memory, train_all

    code, engine, train_cfg = _configs(values, num_labels)
    block = read()
    check_memory(block, code, engine, train_cfg)
    cb = build_codebook(code)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    return train_all(block, cb, engine, train_cfg), cb, train_cfg


def cmd_train(args: argparse.Namespace) -> int:
    values = parse_config(args.config)
    _, _, num_labels = read_header(values["corpus"])
    if num_labels < 1:
        raise ValueError("corpus declares zero labels; nothing to train")
    result, _, train_cfg = _train(
        values, num_labels, lambda: read_block(values["corpus"]), values["out_dir"]
    )
    if result.skipped_unlabeled:
        _print(f"skipped {result.skipped_unlabeled} unlabeled documents")
    for chunk, curve in enumerate(result.loss_curves):
        _print(f"chunk {chunk} loss: " + " ".join(f"{x:.6f}" for x in curve))
    manifest_path = save_ensemble(result.ensemble, values["out_dir"], train_cfg)
    _print(str(manifest_path))
    return EXIT_OK


def _format_prediction(doc_id: int, labels: np.ndarray, scores: np.ndarray) -> str:
    """``doc_id<TAB>label:score ...``, scores to six decimals, from one ``%`` template."""
    pairs = [None] * (2 * labels.size)
    pairs[::2], pairs[1::2] = labels.tolist(), scores.tolist()
    return f"{doc_id}\t" + " ".join(["%d:%.6f"] * labels.size) % tuple(pairs)


# The OpCounters fields predict sums over its queries and prints as means
PREDICT_COUNTERS = ("candidates_retrieved", "unique_candidates", "scores_summed")


def cmd_predict(args: argparse.Namespace) -> int:
    with replacing(args.out) as out:
        params = InferParams(m=args.m, top_k=args.top_k, aggregation=args.aggregation)
        queries = read_header(args.corpus)[0]  # parse_corpus reads exactly this many
        if queries == 0:
            raise ValueError("no queries in corpus")
        sparse = args.mode == "sparse"
        ensemble, cb, idx = load_serving(
            args.manifest, index=sparse, m=params.m if sparse else None
        )
        # sparse mode embeds a block of queries at once; full mode serves one at a time
        rows = block_rows(ensemble.code_config) if sparse else 1
        docs, totals = parse_corpus(args.corpus), [0] * len(PREDICT_COUNTERS)
        while block := list(itertools.islice(docs, rows)):
            if sparse:
                preds = predict_block(ensemble, cb, idx, block, params)
            else:
                preds = [predict_full(ensemble, cb, block[0], params.top_k)]
            for doc, pred in zip(block, preds):
                out.write(_format_prediction(doc.doc_id, pred.labels, pred.scores) + "\n")
                for i, name in enumerate(PREDICT_COUNTERS):
                    totals[i] += getattr(pred.counters, name)
    _print(f"queries = {queries}")
    for name, total in zip(PREDICT_COUNTERS, totals):
        _print(f"mean_{name} = {total / queries:.2f}")
    return EXIT_OK


def _parse_ks(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(decimal(x.strip()) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise ValueError(f"bad k list {raw!r}; expected comma-separated integers") from None
    if not ks or min(ks) < 1:
        raise ValueError(f"k list must contain positive integers, got {raw!r}")
    return ks


def cmd_eval(args: argparse.Namespace) -> int:
    with replacing(args.json) as out:
        ks_precision = _parse_ks(args.ks_precision)
        ks_recall = _parse_ks(args.ks_recall)
        top_k = max(*ks_precision, *ks_recall)
        params = InferParams(m=args.m, top_k=top_k, aggregation=args.aggregation)
        testset = list(parse_corpus(args.corpus))
        if not testset:
            raise ValueError("empty test set")  # evaluate's own check, before the engine loads
        ensemble, cb, idx = load_serving(args.manifest, index=True, m=params.m)
        report = evaluate(ensemble, cb, idx, testset, params, ks_precision, ks_recall)
        _print(report.as_text())
        if out is not None:
            out.write(json.dumps(report.as_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    with replacing(args.out) as out:
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
        failed = "{}\t{}\t{}\t-\t-\t-\t-\terror: {}".format  # (b, k, m, exc)
        for b, k in itertools.product(buckets_list, chunks_list):
            cell = dict(values, buckets_per_chunk=b, num_chunks=k)
            try:
                result, cb, _ = _train(cell, num_labels, lambda: block)
                idx = build_index(cb)
            except Exception as exc:  # per-cell isolation: record, move on
                rows.extend(failed(b, k, m, exc) for m in m_list)
                continue
            for m in m_list:
                try:
                    params = InferParams(m=m, top_k=5)
                    report = evaluate(
                        result.ensemble, cb, idx, testset, params,
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
                    rows.append(failed(b, k, m, exc))
        table = "\n".join(rows)
        if out is None:
            _print(table)
        else:
            out.write(table + "\n")
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
    import scipy.sparse as sp

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
        rel = grad_check(model, x, y, num_coords=200, seed=trial)
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
    values = dict(
        _DEFAULTS, num_chunks=4, buckets_per_chunk=32, feature_dim=512, hidden_dim=16,
        code_seed=VERIFY_SEED, feature_seed=VERIFY_SEED + 1, init_seed=VERIFY_SEED + 2,
        shuffle_seed=VERIFY_SEED + 3, epochs=3, batch_size=100, lr=5e-3,
    )
    result, cb, _ = _train(values, 200, lambda: DocBlock.from_documents(train_docs))
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
    return f"{len(ensemble.models)} blobs checksum-verified"


def cmd_verify(args: argparse.Namespace) -> int:
    if args.manifest:
        load_manifest(args.manifest)  # a missing or malformed manifest fails before any check
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
    p.add_argument("--m", type=decimal, default=50, help="buckets kept per chunk")
    p.add_argument("--top-k", type=decimal, default=10)
    p.add_argument("--mode", choices=("sparse", "full"), default="sparse")
    p.add_argument("--aggregation", choices=AGGREGATION_MODES, default=AGGREGATION_MODES[0])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="ranking metrics over a labeled corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--m", type=decimal, default=50)
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
    # a product summed across BLAS threads can have other bits than at one, so every
    # command computes at one, and a file it writes does not follow the host's cores;
    # an in-process caller gets its own count back
    threads = openblas_threads()
    openblas_threads(1)
    try:
        return args.func(args)
    except BlobChecksumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:  # ManifestError and CorpusFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    finally:
        # stdout written past _print meets a closed reader here, not at exit
        _stdout_guarded(sys.stdout.flush)
        if threads is not None:
            openblas_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
