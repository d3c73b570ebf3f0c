"""Steps the benchmark runs in child processes, one process per step.

    child.py gen     SPEC SEED OUT_DIR           write the seeded corpus files
    child.py measure SPEC SEED SECONDS TRACE INPUTS RUN_DIR

SPEC is a workload dict as JSON.  ``measure`` writes ``RUN_DIR/measure.json``
and, traced, ``RUN_DIR/spans.json.gz``.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sparsix import cli, features, infer, train  # noqa: E402
from sparsix.codes import CodeConfig, build_codebook  # noqa: E402
from sparsix.corpus import make_separable_corpus, parse_corpus, write_corpus  # noqa: E402
from sparsix.features import hash_features  # noqa: E402
from sparsix.index import build_index  # noqa: E402
from sparsix.infer import (  # noqa: E402
    InferParams,
    Prediction,
    dense_op_count,
    op_count_bound,
    predict,
    predict_full,
)
from sparsix.manifest import load_ensemble, save_ensemble  # noqa: E402
from sparsix.model import forward  # noqa: E402
from sparsix.train import EngineConfig, TrainConfig, train_all  # noqa: E402
from spans import (  # noqa: E402
    ORIGINAL_CHUNK_TASK,
    TRACE_DIR_ENV,
    Tracer,
    layer_self_ns,
    merge,
    summarize,
    traced_chunk_task,
)
from workloads import derive_seed  # noqa: E402


def _configs(spec: dict, seed: int):
    code = CodeConfig(
        num_labels=spec["num_labels"],
        num_chunks=spec["num_chunks"],
        buckets_per_chunk=spec["buckets"],
        base_seed=derive_seed(seed, "code"),
    )
    engine = EngineConfig(
        feature_dim=spec["feature_dim"],
        hidden_dim=spec["hidden_dim"],
        feature_seed=derive_seed(seed, "feature"),
        init_seed=derive_seed(seed, "init"),
    )
    train = TrainConfig(
        epochs=spec["epochs"],
        batch_size=spec["batch_size"],
        lr=spec["lr"],
        shuffle_seed=derive_seed(seed, "shuffle"),
        workers=spec["workers"],
    )
    return code, engine, train


# --- gen ----------------------------------------------------------------------


def gen(spec: dict, seed: int, out_dir: Path) -> None:
    """Training corpus plus the held-out split in a seeded order, as files."""
    train, test, num_features = make_separable_corpus(
        num_labels=spec["corpus_labels"],
        docs_per_label=spec["docs_per_label"],
        test_docs_per_label=spec["test_docs_per_label"],
        noise_vocab=spec["noise_vocab"],
        seed=derive_seed(seed, "corpus"),
    )
    order = np.random.Generator(np.random.PCG64(derive_seed(seed, "queries"))).permutation(
        len(test)
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_corpus(out_dir / "train.txt", train, num_features, spec["corpus_labels"])
    write_corpus(
        out_dir / "queries.txt", [test[i] for i in order], num_features, spec["corpus_labels"]
    )


def query_slice(inputs: Path, start: int, stop: int, out: Path) -> Path:
    """Queries ``start:stop`` of the held-out file as a corpus file of their own."""
    lines = (inputs / "queries.txt").read_text(encoding="utf-8").splitlines()
    _, num_features, num_labels = lines[0].split()
    body = lines[1:][start:stop]
    out.write_text(
        f"{len(body)} {num_features} {num_labels}\n" + "".join(f"{b}\n" for b in body),
        encoding="utf-8",
    )
    return out


# --- measure ------------------------------------------------------------------


class Gates:
    """Counts attempted and failed operations; a failure prints its check's name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if name not in self.failures:
                print(f"FAIL {name}: {detail}", file=sys.stderr, flush=True)
            self.failures[name] = self.failures.get(name, 0) + 1


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _format_line(doc_id: int, labels, scores) -> str:
    """One line of `sparsix predict` output: ``doc<TAB>label:score ...``, six decimals."""
    pairs = " ".join(f"{l}:{s:.6f}" for l, s in zip(labels.tolist(), scores.tolist()))
    return f"{doc_id}\t{pairs}"


def _percentile_ms(values_ns: list[int], q: float) -> float:
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), q)) / 1e6


def _environment() -> dict:
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        env["blas"] = "unknown"
    return env


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _train(docs, cb, engine, cfg, out_dir: Path):
    """train_all + save_ensemble, timed; returns (result, manifest, figures)."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = train_all(docs, cb, engine, cfg)
    t1 = time.perf_counter()
    cpu = _cpu_seconds() - cpu0
    manifest = save_ensemble(result.ensemble, out_dir, cfg)
    t2 = time.perf_counter()
    labeled = len(docs) - result.skipped_unlabeled
    chunk_s = result.chunk_seconds
    workers = min(cfg.workers, cb.config.num_chunks)
    figures = {
        "train_docs_per_s": labeled * cfg.epochs / (t2 - t0),
        "train.wall_s": t1 - t0,
        "train.chunk_s_mean": sum(chunk_s) / len(chunk_s),
        "train.chunk_s_max": max(chunk_s),
        "train.cpu_s": cpu,
        "train.cpu_per_wall": cpu / (t1 - t0),
        "train.outside_chunks_s": (t1 - t0) - sum(chunk_s) / workers,
        "manifest.save_ensemble_s": t2 - t1,
    }
    return result, manifest, figures


def _check_reload(gates: Gates, result, manifest: Path, queries) -> None:
    """Saved blobs reload bit-exactly and give identical forward outputs."""
    loaded, _ = load_ensemble(manifest)
    engine = loaded.engine
    for k, (mine, theirs) in enumerate(zip(result.ensemble.models, loaded.models)):
        same = all(_same_bits(p, q) for p, q in zip(mine.params(), theirs.params()))
        for doc in queries[:20]:
            x = hash_features(
                doc, engine.chunk_feature_seed(k), engine.feature_dim, engine.feature_mode
            )
            same = same and _same_bits(forward(mine, x), forward(theirs, x))
        gates.check("reload_bit_identical", same, f"chunk {k} differs after reload")


class ClosedLoop:
    """One client calling predict one query at a time, cycling through the queries.

    ``first_pass[i]`` keeps the prediction for query ``i`` from its first call.
    """

    def __init__(self, ensemble, cb, idx, queries, params, gates: Gates, fault) -> None:
        self.args = (ensemble, cb, idx)
        self.queries = queries
        self.params = params
        self.gates = gates
        self.fault = fault
        self.latencies: list[int] = []
        self.first_pass: list = [None] * len(queries)

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self._one()

    def finish_first_pass(self) -> None:
        while len(self.latencies) < len(self.queries):
            self._one()

    def _one(self) -> None:
        i = len(self.latencies)
        doc = self.queries[i % len(self.queries)]
        error = ""
        t0 = time.perf_counter_ns()
        try:
            pred = predict(*self.args, doc, self.params)
        except Exception as exc:  # a failed query is counted, and the loop goes on
            pred, error = None, repr(exc)
        t1 = time.perf_counter_ns()
        self.latencies.append(t1 - t0)
        self.gates.check("query_ok", pred is not None, error)
        if i < len(self.queries) and pred is not None:
            self.first_pass[i] = self.fault(pred)


def _quality(queries, preds, top_k: int) -> tuple[float, float]:
    p1 = r = 0.0
    for doc, pred in zip(queries, preds):
        if pred is None or doc.labels.size == 0:
            continue
        head = pred.labels[:top_k]
        p1 += float(head.size > 0 and head[0] in doc.labels)
        r += float(np.isin(doc.labels, head).sum()) / doc.labels.size
    return p1 / len(queries), r / len(queries)


def _check_gates(gates: Gates, ensemble, cb, idx, queries, preds, spec) -> None:
    """m = B equals brute force bit for bit; every pruned score is exact."""
    n = cb.config.num_labels
    b = cb.config.buckets_per_chunk
    wide = InferParams(m=b, top_k=spec["top_k"])
    for doc, pred in list(zip(queries, preds))[: spec["gate_queries"]]:
        sparse = predict(ensemble, cb, idx, doc, wide)
        full = predict_full(ensemble, cb, doc, spec["top_k"])
        gates.check(
            "m_equals_B_matches_brute_force",
            _same_bits(sparse.labels, full.labels) and _same_bits(sparse.scores, full.scores),
            f"query {doc.doc_id}",
        )
        every = predict_full(ensemble, cb, doc, n)
        exact = np.empty(n)
        exact[every.labels] = every.scores
        ok = pred is not None and _same_bits(pred.scores, exact[pred.labels])
        gates.check("pruned_scores_exact", ok, f"query {doc.doc_id} at m={spec['m']}")


def _run_cli(argv: list[str]) -> tuple[int, float]:
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        t1 = time.perf_counter()
    return code, t1 - t0


def _predict_argv(manifest: Path, corpus: Path, out: Path, spec: dict) -> list[str]:
    return [
        "predict",
        *("--manifest", str(manifest), "--corpus", str(corpus), "--out", str(out)),
        *("--m", str(spec["m"]), "--top-k", str(spec["top_k"])),
    ]


def _check_cli_output(gates: Gates, out: Path, preds) -> None:
    """The command's file equals the closed-loop predictions formatted its way.

    Document ids in the command's output count from its own file's first line.
    """
    lines = out.read_text(encoding="utf-8").split("\n")
    for i, pred in enumerate(preds):
        want = _format_line(i, pred.labels, pred.scores) if pred is not None else None
        got = lines[i] if i < len(lines) else None
        gates.check("cli_output_identical", want == got, f"line {i + 1}: {got!r} != {want!r}")
    gates.check(
        "cli_output_identical",
        lines[len(preds):] == [""],
        f"{len(lines) - 1 - len(preds)} extra lines",
    )


def _trace_queries(ensemble, cb, idx, queries, params) -> tuple[dict, object]:
    """Replay the queries traced; per-query layer figures and the tracer.

    Each query also runs once untraced, in alternating order, so the overhead
    compares the two under the same conditions on the host.
    """
    tracer = Tracer()
    untraced_ns = 0
    for i, doc in enumerate(queries):
        args = (ensemble, cb, idx, doc, params)
        for traced in (True, False) if i % 2 else (False, True):
            if traced:
                _wrap_query_path(tracer)
                try:
                    tracer.call("infer.predict", infer.predict, args, {}, True)
                finally:
                    tracer.restore()
            else:
                t0 = time.perf_counter_ns()
                infer.predict(*args)
                untraced_ns += time.perf_counter_ns() - t0
    summary = summarize(tracer.spans)
    layers = layer_self_ns(summary)
    q = len(queries)

    def us(name: str) -> float:
        return summary.get(name, {}).get("ns", 0) / q / 1e3

    figures = {
        "infer.predict_us": us("infer.predict"),
        "infer.embed_us": us("infer.embed_query"),
        "infer.topm_us": us("infer.sparsify_topm"),
        "infer.candidates_us": us("infer.retrieve_candidates"),
        "infer.score_us": us("infer.aggregate_scores"),
        "infer.rank_us": us("infer._rank"),
        "infer.self_us": layers.get("infer", 0) / q / 1e3,
        "features.hash_features_us": us("features.hash_features"),
        "features.self_us": layers.get("features", 0) / q / 1e3,
        "hashing.murmur3_calls": summary.get("hashing.murmur3_32_u64", {}).get("calls", 0) / q,
        "hashing.murmur3_self_us": layers.get("hashing", 0) / q / 1e3,
        "model.forward_us": us("model.forward"),
        "index.lookup_calls": summary.get("index.lookup", {}).get("calls", 0) / q,
        "index.postings_read": tracer.counts.get("index.lookup", 0) / q,
        "index.self_us": layers.get("index", 0) / q / 1e3,
        "trace.query_overhead_frac": summary["infer.predict"]["ns"] / untraced_ns - 1.0,
    }
    return figures, tracer


def _wrap_query_path(tracer) -> None:
    tracer.wrap(infer, "embed_query", "infer.embed_query")
    tracer.wrap(infer, "hash_features", "features.hash_features")
    tracer.wrap(features, "murmur3_32_u64", "hashing.murmur3_32_u64")
    tracer.wrap(infer, "forward", "model.forward")
    tracer.wrap(infer, "sparsify_topm", "infer.sparsify_topm")
    tracer.wrap(infer, "retrieve_candidates", "infer.retrieve_candidates")
    tracer.wrap(infer, "lookup", "index.lookup", count=lambda args, result: result.size)
    tracer.wrap(infer, "aggregate_scores", "infer.aggregate_scores")
    tracer.wrap(infer, "_rank", "infer._rank")


def _trace_cli(argv: list[str], count: int) -> tuple[dict, object]:
    """Run the predict command traced, between two untraced runs; per-query figures."""
    _, before = _run_cli(argv)
    tracer = Tracer()
    _wrap_query_path(tracer)
    tracer.wrap(cli, "load_ensemble", "manifest.load_ensemble")
    tracer.wrap(cli, "build_codebook", "codes.build_codebook")
    tracer.wrap(cli, "build_index", "index.build_index")
    tracer.wrap_iter(cli, "parse_corpus", "corpus.parse_corpus", new_trace=True)
    tracer.wrap(cli, "predict", "infer.predict")
    tracer.wrap(cli, "_format_prediction", "cli._format_prediction")
    try:
        _, traced = tracer.call("cli.main", _run_cli, (argv,), {})
    finally:
        tracer.restore()
    _, after = _run_cli(argv)
    summary = summarize(tracer.spans)
    layers = layer_self_ns(summary)
    figures = {
        "cli.parse_us": summary["corpus.parse_corpus"]["ns"] / count / 1e3,
        "cli.format_us": summary["cli._format_prediction"]["ns"] / count / 1e3,
        "cli.self_us": layers["cli"] / count / 1e3,
        "trace.cli_overhead_frac": 2 * traced / (before + after) - 1.0,
    }
    return figures, tracer


def _trace_training(docs, cb, engine, cfg, trace_dir: Path, untraced_wall: float):
    """Train again with every chunk traced in its worker; figures summed over chunks."""
    os.environ[TRACE_DIR_ENV] = str(trace_dir)
    train._train_chunk_task = traced_chunk_task
    try:
        t0 = time.perf_counter()
        result = train_all(docs, cb, engine, cfg)
        wall = time.perf_counter() - t0
    finally:
        train._train_chunk_task = ORIGINAL_CHUNK_TASK
    dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("chunk-*.json"))]
    summary = merge([summarize(d["spans"]) for d in dumps])
    layers = layer_self_ns(summary)
    steps = summary["model.apply_update"]["calls"]
    useful = sum(d["counts"].get("model.apply_update", 0.0) for d in dumps)
    figures = {
        "train.chunk_matrix_s": summary["train._chunk_matrix"]["ns"] / 1e9,
        "train.batch_step_s": summary["train._batch_step"]["ns"] / 1e9,
        "train.loop_s": summary["train._train_chunk_task"]["self_ns"] / 1e9,
        "train.self_s": layers["train"] / 1e9,
        "train.batches": summary["train._batch_step"]["calls"],
        "model.apply_update_s": summary["model.apply_update"]["ns"] / 1e9,
        "model.adam_useful_frac": useful / steps,
        "trace.train_overhead_frac": wall / untraced_wall - 1.0,
    }
    return result, figures, dumps


def _identity_fault(pred):
    return pred


def _perturb_one_score(pred):
    """Self-test fault: nudge the best score of every prediction by one ulp."""
    scores = pred.scores.copy()
    if scores.size:
        scores[0] = np.nextafter(scores[0], np.inf)
    return Prediction(labels=pred.labels, scores=scores, counters=pred.counters)


FAULTS = {"none": _identity_fault, "perturb_score": _perturb_one_score}


def measure(
    spec: dict, seed: int, seconds: float, trace: bool, inputs: Path, run_dir: Path
) -> dict:
    """Train, save, reload and serve one workload; every check feeds the gates."""
    gates = Gates()
    fault = FAULTS[spec.get("fault", "none")]
    code, engine, cfg = _configs(spec, seed)
    out: dict = {"environment": _environment(), "samples": {}, "layers": {}}

    # write path
    docs = list(parse_corpus(inputs / "train.txt"))
    cb = build_codebook(code)
    result, manifest, figures = _train(docs, cb, engine, cfg, run_dir / "engine")
    out["metrics"] = {"train_docs_per_s": figures.pop("train_docs_per_s")}
    out["layers"].update(figures)
    out["samples"]["train_docs_per_s"] = (
        f"1 training of {len(docs)} documents x {cfg.epochs} epochs"
    )

    # the predict command runs over consecutive parts of the query file
    bounds = [
        spec["cli_queries"] * i // spec["predict_parts"] for i in range(spec["predict_parts"] + 1)
    ]
    parts = [
        query_slice(inputs, a, b, run_dir / f"queries-{i}.txt")
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]
    queries = list(parse_corpus(query_slice(inputs, 0, bounds[-1], run_dir / "queries.txt")))
    _check_reload(gates, result, manifest, queries)

    if trace:
        traced, figures, train_dumps = _trace_training(
            docs, cb, engine, cfg, run_dir / "train-spans", figures["train.wall_s"]
        )
        out["layers"].update(figures)
        for k, (a, b) in enumerate(zip(result.ensemble.models, traced.ensemble.models)):
            same = all(_same_bits(p, q) for p, q in zip(a.params(), b.params()))
            gates.check("traced_training_identical", same, f"chunk {k}")
        del traced
    del docs, result

    # read path, from the saved engine
    ensemble, _ = load_ensemble(manifest)
    cbs = build_codebook(ensemble.code_config)
    idx = build_index(cbs)
    params = InferParams(m=spec["m"], top_k=spec["top_k"])
    for doc in queries[: spec["warmup_queries"]]:
        predict(ensemble, cbs, idx, doc, params)
    # Closed-loop slices alternate with the predict commands, so both sample
    # the whole serving phase and a burst of contention on the host moves one
    # slice rather than a whole metric.  A traced run reports no end-to-end
    # figures: one pass over the queries feeds its checks.
    loop = ClosedLoop(ensemble, cbs, idx, queries, params, gates, fault)
    walls = []
    for i, part in enumerate(parts):
        loop.run_for(0.0 if trace else seconds / len(parts))
        argv = _predict_argv(manifest, part, run_dir / f"predictions-{i}.tsv", spec)
        code_rc, wall = _run_cli(argv)
        gates.check("cli_exit_code", code_rc == 0, f"exit {code_rc}")
        walls.append(wall)
    loop.finish_first_pass()
    latencies, preds = loop.latencies, loop.first_pass
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        _check_cli_output(gates, run_dir / f"predictions-{i}.tsv", preds[start:stop])
    per_query = [w / (b - a) for w, a, b in zip(walls, bounds, bounds[1:])]
    out["metrics"]["predict_p90_ms"] = float(np.percentile(per_query, 90)) * 1e3
    out["samples"]["predict_p90_ms"] = f"{len(parts)} commands over about {bounds[1]} queries each"
    out["metrics"]["predict_qps"] = bounds[-1] / sum(walls)
    out["samples"]["predict_qps"] = f"{bounds[-1]} queries over {len(parts)} commands"
    out["metrics"]["query_p50_ms"] = _percentile_ms(latencies, 50)
    out["metrics"]["query_p95_ms"] = _percentile_ms(latencies, 95)
    out["metrics"]["query_p99_ms"] = _percentile_ms(latencies, 99)
    out["samples"]["query_p50_ms"] = f"{len(latencies)} closed-loop queries"
    out["samples"]["query_p95_ms"] = (
        f"{len(latencies)} closed-loop queries, {len(latencies) // 20} beyond p95"
    )
    out["samples"]["query_p99_ms"] = (
        f"{len(latencies)} closed-loop queries, {len(latencies) // 100} beyond p99"
    )
    p1, r100 = _quality(queries, preds, spec["top_k"])
    out["metrics"]["p_at_1"] = p1
    out["metrics"]["recall_at_100"] = r100
    out["samples"]["p_at_1"] = out["samples"]["recall_at_100"] = f"{len(queries)} held-out queries"
    gates.check(
        "quality_floor",
        p1 >= spec["min_p_at_1"] and r100 >= spec["min_recall_at_100"],
        f"P@1 {p1:.4f} (floor {spec['min_p_at_1']}), "
        f"R@100 {r100:.4f} (floor {spec['min_recall_at_100']})",
    )

    kept = [p for p in preds if p is not None]
    unique = float(np.mean([p.counters.unique_candidates for p in kept]))
    retrieved = float(np.mean([p.counters.candidates_retrieved for p in kept]))
    k, b, n, m = code.num_chunks, code.buckets_per_chunk, code.num_labels, spec["m"]
    modelled = k * m * n / b
    out["layers"]["infer.unique_candidates"] = unique
    out["layers"]["infer.retrieved_candidates"] = retrieved
    out["layers"]["infer.dedup_frac"] = unique / retrieved
    out["layers"]["infer.unique_over_model"] = unique / modelled
    out["cost_model"] = {
        "unique_candidates": unique,
        "retrieved_candidates": retrieved,
        "K*m*N/B": modelled,
        "op_count_bound": op_count_bound(n, b, k, m),
        "dense_op_count": dense_op_count(n, m, k),
    }

    _check_gates(gates, ensemble, cbs, idx, queries, preds, spec)

    if trace:
        figures, qtracer = _trace_queries(ensemble, cbs, idx, queries, params)
        out["layers"].update(figures)
        # one longer command, so per-query figures outweigh the command's set-up
        traced_part = query_slice(
            inputs, 0, spec["trace_cli_queries"], run_dir / "queries-traced.txt"
        )
        argv = _predict_argv(manifest, traced_part, run_dir / "predictions-traced.tsv", spec)
        figures, ctracer = _trace_cli(argv, spec["trace_cli_queries"])
        out["layers"].update(figures)
        full_ns = []
        for doc in queries[: spec["full_queries"]]:
            t0 = time.perf_counter_ns()
            predict_full(ensemble, cbs, doc, spec["top_k"])
            full_ns.append(time.perf_counter_ns() - t0)
        out["layers"]["infer.full_p50_ms"] = _percentile_ms(full_ns, 50)
        with gzip.open(run_dir / "spans.json.gz", "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump({"train": train_dumps, "query": qtracer.spans, "cli": ctracer.spans}, fh)

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["metrics"]["peak_rss_mb"] = rss_kib / 1024.0
    out["samples"]["peak_rss_mb"] = "1 measuring process and its training workers"
    out["attempted"] = gates.attempted
    out["failed"] = gates.failed
    out["failures"] = gates.failures
    return out


def main(argv: list[str]) -> int:
    step, spec_json, seed = argv[0], argv[1], int(argv[2])
    spec = json.loads(spec_json)
    if step == "gen":
        gen(spec, seed, Path(argv[3]))
    elif step == "measure":
        seconds, trace = float(argv[3]), argv[4] == "1"
        inputs, run_dir = Path(argv[5]), Path(argv[6])
        out = measure(spec, seed, seconds, trace, inputs, run_dir)
        (run_dir / "measure.json").write_text(json.dumps(out), encoding="utf-8")
    else:
        print(f"unknown step {step!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
