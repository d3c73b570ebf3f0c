"""Shipping gate: the nine release criteria, one test and one verdict line each.

Every test prints a single PASS/FAIL line directly to the terminal (bypassing
capture) with the measured quantities and its wall-clock budget, then asserts.
Thresholds live here in literal form on purpose; do not derive them from the
implementation under test.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from sparsix.codes import (
    CodeConfig,
    LabelCodebook,
    binomial_chisquare,
    build_codebook,
    orthogonality_stats,
)
from sparsix.corpus import make_separable_corpus
from sparsix.equivalence import (
    argmax_invariant,
    change_of_basis,
    random_orthonormal_basis,
    verify_deferred_equivalence,
)
from sparsix.index import InvertedIndex, bucket_loads, build_index
from sparsix.infer import (
    InferParams,
    dense_op_count,
    embed_query,
    op_count_bound,
    predict,
    predict_full,
)
from sparsix.manifest import load_ensemble, save_ensemble
from sparsix.metrics import evaluate
from sparsix.model import grad_check, init_model, openblas_threads, save_model
from sparsix.train import ChunkEnsemble, EngineConfig, TrainConfig, train_all


def emit(capsys, name: str, ok: bool, detail: str) -> None:
    """One unbuffered verdict line per criterion, visible under capture."""
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


# --- shared large fixture (criteria 7, 8, 9) --------------------------------

LEARN_N = 2000
LEARN_K = 4
LEARN_B = 256
LEARN_M = 10


@dataclass(frozen=True)
class LearnedEngine:
    ensemble: ChunkEnsemble
    cb: LabelCodebook
    idx: InvertedIndex
    test_docs: list
    build_seconds: float


@pytest.fixture(scope="module")
def learned_engine():
    """Separable 2000-label corpus, 5 private tokens each, trained 10 epochs."""
    t0 = time.perf_counter()
    train_docs, test_docs, _ = make_separable_corpus(
        num_labels=LEARN_N,
        tokens_per_label=5,
        docs_per_label=20,
        tokens_per_doc=3,
        noise_tokens=2,
        noise_vocab=1000,
        test_docs_per_label=2,
        seed=7,
    )
    cb = build_codebook(CodeConfig(LEARN_N, LEARN_K, LEARN_B, base_seed=42))
    engine = EngineConfig(feature_dim=8192, hidden_dim=64, feature_seed=1, init_seed=2)
    cfg = TrainConfig(epochs=10, batch_size=200, lr=2e-3, shuffle_seed=3, workers=2)
    result = train_all(train_docs, cb, engine, cfg)
    idx = build_index(cb)
    return LearnedEngine(
        ensemble=result.ensemble,
        cb=cb,
        idx=idx,
        test_docs=test_docs,
        build_seconds=time.perf_counter() - t0,
    )


@pytest.fixture(scope="module")
def learned_report(learned_engine):
    t0 = time.perf_counter()
    report = evaluate(
        learned_engine.ensemble,
        learned_engine.cb,
        learned_engine.idx,
        learned_engine.test_docs,
        InferParams(m=LEARN_M, top_k=100),
        ks_precision=(1,),
        ks_recall=(100,),
    )
    return report, time.perf_counter() - t0


# --- criteria ----------------------------------------------------------------


def test_criterion_1_code_orthogonality(capsys):
    """Mean pairwise code dot within 4 SE of K/B; histogram fits the binomial."""
    t0 = time.perf_counter()
    n, k, b = 10_000, 8, 1000
    cb = build_codebook(CodeConfig(n, k, b, base_seed=0))
    stats = orthogonality_stats(cb, num_pairs=100_000, sample_seed=12345)
    target = k / b
    se = math.sqrt(k * (1 / b) * (1 - 1 / b) / stats.num_pairs)
    mean_ok = abs(stats.mean_dot - target) <= 4 * se
    _, _, pvalue = binomial_chisquare(stats.histogram, 1 / b)
    chi_ok = pvalue >= 0.001
    elapsed = time.perf_counter() - t0
    emit(
        capsys,
        "criterion-1 code-orthogonality",
        mean_ok and chi_ok and elapsed < 10.0,
        f"mean={stats.mean_dot:.6f} target={target:.6f} (4SE={4 * se:.6f}), "
        f"chi2 p={pvalue:.3f} >= 0.001, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_load_balance(capsys):
    """Worst bucket load stays under the binomial 1-1e-6 quantile."""
    t0 = time.perf_counter()
    n, k, b = 30_000, 8, 1000
    idx = build_index(build_codebook(CodeConfig(n, k, b, base_seed=0)))
    worst = max(int(bucket_loads(idx, chunk).max()) for chunk in range(k))
    elapsed = time.perf_counter() - t0
    emit(
        capsys,
        "criterion-2 load-balance",
        worst <= 60 and elapsed < 5.0,
        f"max bucket load {worst} <= 60 over {k} chunks "
        f"(mean {n / b:.0f}), {elapsed:.1f}s < 5s",
    )


def test_criterion_3_oracle_equivalence(capsys):
    """Unpruned sparse retrieval reproduces brute-force ranking on 1000 queries."""
    t0 = time.perf_counter()
    n, k, b = 1000, 4, 64
    train_docs, test_docs, _ = make_separable_corpus(
        num_labels=n,
        tokens_per_label=3,
        docs_per_label=4,
        tokens_per_doc=2,
        noise_tokens=1,
        noise_vocab=200,
        test_docs_per_label=1,
        seed=5,
    )
    cb = build_codebook(CodeConfig(n, k, b, base_seed=9))
    engine = EngineConfig(feature_dim=2048, hidden_dim=16, feature_seed=1, init_seed=2)
    result = train_all(train_docs, cb, engine, TrainConfig(epochs=2, batch_size=128, lr=2e-3))
    idx = build_index(cb)
    params = InferParams(m=b, top_k=10)
    matches = 0
    for doc in test_docs:
        sparse = predict(result.ensemble, cb, idx, doc, params)
        full = predict_full(result.ensemble, cb, doc, 10)
        if np.array_equal(sparse.labels, full.labels) and np.array_equal(
            sparse.scores, full.scores
        ):
            matches += 1
    elapsed = time.perf_counter() - t0
    emit(
        capsys,
        "criterion-3 oracle-equivalence",
        matches == len(test_docs) and elapsed < 30.0,
        f"{matches}/{len(test_docs)} queries exact at m=B={b}, {elapsed:.1f}s < 30s",
    )


def test_criterion_4_gradient_check(capsys):
    """Analytic gradients agree with central differences to 1e-4."""
    t0 = time.perf_counter()
    f, h, b = 20, 8, 10
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        model = init_model(f, h, b, init_seed=int(rng.integers(2**32)))
        nnz = int(rng.integers(1, 6))
        idxs = np.sort(rng.choice(f, size=nnz, replace=False))
        x = sp.csr_matrix((rng.uniform(0.5, 3.0, nnz), idxs, [0, nnz]), shape=(1, f))
        y = np.zeros((1, b))
        y[0, rng.choice(b, size=int(rng.integers(1, 4)), replace=False)] = 1.0
        worst = max(worst, grad_check(model, x, y, num_coords=512))
    elapsed = time.perf_counter() - t0
    emit(
        capsys,
        "criterion-4 gradient-check",
        worst <= 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.3e} <= 1e-4 over 20 instances, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_5_basis_equivalence(capsys):
    """Scoring commutes with basis rotation to 1e-10 at n=32 and n=128."""
    t0 = time.perf_counter()
    worst_orth = worst_map = worst_dev = 0.0
    argmax_ok = True
    for n in (32, 128):
        a = random_orthonormal_basis(n, seed=100 + n)
        bm = random_orthonormal_basis(n, seed=200 + n)
        p = change_of_basis(a, bm).matrix
        worst_orth = max(worst_orth, float(np.abs(p @ p.T - np.eye(n)).max()))
        worst_map = max(worst_map, float(np.abs(a.columns - p @ bm.columns).max()))
        x = np.random.Generator(np.random.PCG64(300 + n)).standard_normal((100, n))
        worst_dev = max(worst_dev, verify_deferred_equivalence(x, a, bm))
        argmax_ok = argmax_ok and argmax_invariant(x, a, bm)
    elapsed = time.perf_counter() - t0
    ok = worst_orth <= 1e-10 and worst_map <= 1e-10 and worst_dev <= 1e-10 and argmax_ok
    emit(
        capsys,
        "criterion-5 basis-equivalence",
        ok and elapsed < 5.0,
        f"|PP^T-I|={worst_orth:.2e}, |A-PBm|={worst_map:.2e}, "
        f"deviation={worst_dev:.2e} (all <= 1e-10), argmax={argmax_ok}, "
        f"{elapsed:.1f}s < 5s",
    )


def test_criterion_6_parallel_identity(capsys):
    """Worker count never changes the learned bytes, also where OpenBLAS threads a product.

    The wide shape's float32 products differ between one BLAS thread and two, so
    the caller runs at two threads first and every run must train at one; the
    caller's count must be untouched, at two, afterwards.
    """
    t0 = time.perf_counter()
    train_docs, _, _ = make_separable_corpus(
        num_labels=40,
        tokens_per_label=4,
        docs_per_label=5,
        tokens_per_doc=3,
        noise_tokens=1,
        noise_vocab=100,
        test_docs_per_label=1,
        seed=13,
    )
    k = 4
    cb = build_codebook(CodeConfig(40, k, 32, base_seed=3))
    engine = EngineConfig(feature_dim=512, hidden_dim=16, feature_seed=1, init_seed=2)
    serial = train_all(train_docs, cb, engine, TrainConfig(epochs=3, batch_size=32, workers=1))
    parallel = train_all(train_docs, cb, engine, TrainConfig(epochs=3, batch_size=32, workers=k))

    def blob_bytes(ensemble):
        return [save_model(model) for model in ensemble.models]

    pairs = list(zip(blob_bytes(serial.ensemble), blob_bytes(parallel.ensemble)))
    small_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    wide_docs, _, _ = make_separable_corpus(num_labels=200, docs_per_label=20)
    wide_cb = build_codebook(CodeConfig(200, 2, 2048, base_seed=3))
    wide = EngineConfig(feature_dim=8192, hidden_dim=512, feature_seed=1, init_seed=2)
    before = openblas_threads()
    caller = openblas_threads(2)
    try:
        wide_runs = [
            train_all(wide_docs, wide_cb, wide, TrainConfig(epochs=1, batch_size=1000, workers=w))
            for w in (1, 2)
        ]
        after = openblas_threads()
    finally:
        if before is not None:
            openblas_threads(before)
    wide_pairs = list(zip(*(blob_bytes(run.ensemble) for run in wide_runs)))
    wide_seconds = time.perf_counter() - t1

    same, wide_same = (sum(x == y for x, y in p) for p in (pairs, wide_pairs))
    elapsed = time.perf_counter() - t0
    emit(
        capsys,
        "criterion-6 parallel-identity",
        same == len(pairs) and wide_same == len(wide_pairs) and after == caller
        and elapsed < 120.0,
        f"{same}/{len(pairs)} chunk blobs bit-identical between workers=1 and workers={k} "
        f"({small_seconds:.1f}s), {wide_same}/{len(wide_pairs)} at H=512, B=2048 between "
        f"workers=1 and 2 with the caller at {caller} BLAS threads, untouched at {after} after "
        f"({wide_seconds:.1f}s), {elapsed:.1f}s < 120s",
    )


def test_criterion_7_end_to_end_learnability(capsys, learned_engine, learned_report):
    """The separable corpus is actually learned at sparse inference settings."""
    report, eval_seconds = learned_report
    total = learned_engine.build_seconds + eval_seconds
    p1 = report.precision_at[1]
    r100 = report.recall_at[100]
    ok = p1 >= 0.9 and r100 >= 0.95 and total < 300.0
    emit(
        capsys,
        "criterion-7 end-to-end-learnability",
        ok,
        f"P@1={p1:.4f} >= 0.9, Rec@100={r100:.4f} >= 0.95 at m={LEARN_M} "
        f"({report.num_queries} queries), {total:.1f}s < 300s",
    )


def test_criterion_8_candidate_bound(capsys, learned_report):
    """Measured candidate volume obeys the K*m*N/B estimate; cost model exact."""
    report, _ = learned_report
    expected_candidates = LEARN_K * LEARN_M * LEARN_N / LEARN_B
    bound = 1.2 * expected_candidates
    measured = report.mean_counters["unique_candidates"]

    retrieved = LEARN_K * LEARN_M * LEARN_N / LEARN_B
    sparse_formula = LEARN_B * math.log2(LEARN_M) + retrieved + retrieved * math.log2(5)
    dense_formula = LEARN_N * LEARN_M * LEARN_K + LEARN_N * math.log2(5)
    sparse = op_count_bound(LEARN_N, LEARN_B, LEARN_K, LEARN_M)
    dense = dense_op_count(LEARN_N, LEARN_M, LEARN_K)
    exact = sparse == sparse_formula and dense == dense_formula
    ratio_exact = sparse / dense == sparse_formula / dense_formula

    emit(
        capsys,
        "criterion-8 candidate-bound",
        measured <= bound and exact and ratio_exact,
        f"mean unique candidates {measured:.1f} <= {bound:.1f} "
        f"(KmN/B={expected_candidates:.1f}); op-count ratio "
        f"{sparse / dense:.3e} matches formulas exactly",
    )


def test_criterion_9_persistence_round_trip(capsys, learned_engine, tmp_path):
    """Reloading from disk reproduces forward outputs bit for bit."""
    t0 = time.perf_counter()
    manifest = save_ensemble(learned_engine.ensemble, tmp_path / "engine")
    loaded, _ = load_ensemble(manifest)
    docs = learned_engine.test_docs[:100]
    identical = 0
    for doc in docs:
        before = embed_query(learned_engine.ensemble, doc, LEARN_B).probs
        after = embed_query(loaded, doc, LEARN_B).probs
        if np.array_equal(before, after):
            identical += 1
    elapsed = time.perf_counter() - t0
    emit(
        capsys,
        "criterion-9 persistence-round-trip",
        identical == len(docs),
        f"{identical}/{len(docs)} documents bit-identical after reload, "
        f"{elapsed:.1f}s",
    )
