"""Workload definitions and the metric tables the benchmark reports.

Both workloads train the same engine on the same seeded corpus (the write
path) and then serve held-out queries one at a time from a closed loop (the
read path).  They differ only in catalog size: 2,000 labels, where per-query
embedding dominates, and 100,000 labels, where candidate union, scoring and
ranking dominate.  Labels beyond the first 2,000 have codes and postings but
no training documents; a label's code does not depend on N, so the learned
bytes are the same in both workloads.

Every end-to-end metric is measured on every workload, because each run
reports all of them.  That is why training is part of both workloads instead
of a workload of its own: a serve-only run has no training throughput to
report, and a third run that trains would repeat the same work.

This module is stdlib-only so the entry point can read it before it knows
whether the program's sources are present.  Run it to rewrite
``BENCHMARK.json`` from these tables:

    python3 perfbench/workloads.py
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

RUN_SECONDS = 8

# Shared by every workload: the corpus, the engine and the query knobs.
# One epoch at lr 2e-2 meets the quality floor (P@1 >= 0.9) at half the
# run length of two epochs at lr 1e-2.
BASE = {
    "corpus_labels": 2000,
    "docs_per_label": 20,
    "test_docs_per_label": 2,
    "noise_vocab": 1000,
    "num_chunks": 4,
    "buckets": 256,
    "feature_dim": 8192,
    "hidden_dim": 64,
    "epochs": 1,
    "batch_size": 200,
    "lr": 2e-2,
    "workers": 2,
    "m": 10,
    "top_k": 100,
    # held-out queries served: the closed loop makes at least one pass over
    # them, and `sparsix predict` runs once over each of `predict_parts`
    # consecutive parts, between slices of the loop.  Parts are short (0.15 s
    # to 0.35 s of queries) so that most commands run at one host speed.
    "cli_queries": 4000,
    "predict_parts": 40,
    "warmup_queries": 20,
    # the traced run's `sparsix predict` command (traced runs only)
    "trace_cli_queries": 800,
    # correctness gates: m = B against brute force, and exact pruned scores
    "gate_queries": 25,
    # brute-force reference timing (traced runs only)
    "full_queries": 200,
    # fresh interpreters timed for setup_s
    "setup_repeats": 3,
    # quality floor on the held-out queries
    "min_p_at_1": 0.9,
    "min_recall_at_100": 0.95,
}

WORKLOADS = {
    "catalog-2k": dict(
        BASE,
        num_labels=2000,
        why="train, then serve a 2,000-label catalog: per-query embedding "
        "(hashing, forward, top-m) dominates the read path",
    ),
    "catalog-100k": dict(
        BASE,
        num_labels=100_000,
        # a pass over 4,000 queries would take about 30 s here
        cli_queries=1000,
        predict_parts=20,
        trace_cli_queries=200,
        why="train, then serve a 100,000-label catalog: candidate union, "
        "scoring and ranking dominate the read path",
    ),
}

# name -> (unit, better, bound, meaning); bound is the share of the parent's
# median by which the metric may worsen before a change counts as a regression
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "fresh interpreter until ready to train and serve: "
                "import, parse_corpus, load_ensemble, build_codebook, build_index"),
    # On a shared 2-vCPU machine a query runs at one of two host speeds, about
    # 1.9x apart, and the share of time spent at the slow one changes from run
    # to run.  Medians and means follow that share, so their 10-run spread
    # passes the largest bound allowed (0.25), while high percentiles sit at
    # the slow speed's level and scale with the program's own work.  The 95th
    # is the highest with enough samples beyond it at 100k labels (about 60 of
    # 1,300); the 99th there has about 13 and spreads too.  The median, the
    # 99th percentile and the commands' overall throughput are printed, not
    # gated (see PRINTED).
    "query_p95_ms": ("ms", "lower", 0.25, "latency of one closed-loop predict call, "
                     "95th percentile"),
    "predict_p90_ms": ("ms", "lower", 0.25, "`sparsix predict`: the command's wall time "
                       "divided by its queries, 90th percentile over the short commands "
                       "of a run"),
    "train_docs_per_s": ("doc-epochs/s", "higher", 0.25, "labeled documents x epochs "
                         "over the wall time of train_all + save_ensemble"),
    "p_at_1": ("fraction", "higher", 0.05, "precision@1 on the held-out queries"),
    "recall_at_100": ("fraction", "higher", 0.05, "recall@100 on the held-out queries"),
    "peak_rss_mb": ("MiB", "lower", 0.1, "largest ru_maxrss of the measuring process "
                    "or its training workers"),
}

# Printed beside the end-to-end metrics but not gated: name -> (unit, meaning).
PRINTED = {
    "query_p50_ms": ("ms", "latency of one closed-loop predict call, median"),
    "query_p99_ms": ("ms", "latency of one closed-loop predict call, 99th percentile"),
    "predict_qps": ("queries/s", "`sparsix predict`: all commands' queries over their "
                    "summed wall time"),
}

# name -> (unit, better, meaning).  Query-path figures are per query, from the traced
# replay; training figures are summed over chunks, from the traced training.
PER_LAYER = {
    # set-up, from the fresh-interpreter probes (medians)
    "setup.import_s": ("s", "lower", "import sparsix and its dependencies"),
    "corpus.parse_s": ("s", "lower", "parse_corpus over the training file"),
    "corpus.docs_per_s": ("docs/s", "higher", "training documents parsed per second"),
    "codes.build_codebook_s": ("s", "lower", "build_codebook for the serving catalog"),
    "manifest.load_ensemble_s": ("s", "lower", "load_ensemble, sha256-verified"),
    "index.build_index_s": ("s", "lower", "build_index for the serving catalog"),
    # query path, per query
    "infer.predict_us": ("us", "lower", "predict, inclusive"),
    "infer.embed_us": ("us", "lower", "embed_query, inclusive: hashing, forward, top-m"),
    "infer.topm_us": ("us", "lower", "sparsify_topm, K calls"),
    "infer.candidates_us": ("us", "lower", "retrieve_candidates, inclusive of index lookups"),
    "infer.score_us": ("us", "lower", "aggregate_scores"),
    "infer.rank_us": ("us", "lower", "_rank"),
    "infer.self_us": ("us", "lower", "self time of the infer layer"),
    "features.hash_features_us": ("us", "lower", "hash_features, K calls, inclusive"),
    "features.self_us": ("us", "lower", "self time of the features layer"),
    "hashing.murmur3_calls": ("count", "lower", "murmur3_32_u64 calls"),
    "hashing.murmur3_self_us": ("us", "lower", "self time of the hashing layer"),
    "model.forward_us": ("us", "lower", "forward, K calls; the model layer's self time"),
    "index.lookup_calls": ("count", "lower", "lookup calls, K*m"),
    "index.postings_read": ("count", "lower", "posting entries returned by lookup"),
    "index.self_us": ("us", "lower", "self time of the index layer"),
    "infer.unique_candidates": ("count", "lower", "distinct candidates scored"),
    "infer.retrieved_candidates": ("count", "lower", "candidates retrieved with multiplicity"),
    "infer.dedup_frac": ("fraction", "higher", "unique over retrieved candidates"),
    "infer.unique_over_model": ("fraction", "lower", "unique candidates over K*m*N/B"),
    "infer.full_p50_ms": ("ms", "lower", "predict_full (brute force) on a fixed sample, median"),
    "trace.query_overhead_frac": ("fraction", "lower", "traced over untraced time of the "
                                  "same queries, run alternately, minus 1"),
    # the predict command, per query
    "cli.parse_us": ("us", "lower", "parse_corpus inside predict"),
    "cli.format_us": ("us", "lower", "_format_prediction inside predict"),
    "cli.self_us": ("us", "lower", "self time of the cli layer"),
    "trace.cli_overhead_frac": ("fraction", "lower", "traced command time over the mean of "
                                "untraced runs before and after it, minus 1"),
    # training
    "train.chunk_s_mean": ("s", "lower", "TrainResult.chunk_seconds, mean"),
    "train.chunk_s_max": ("s", "lower", "TrainResult.chunk_seconds, max"),
    "train.cpu_s": ("s", "lower", "user + system CPU of train_all, own plus workers"),
    "train.cpu_per_wall": ("fraction", "higher", "train.cpu_s over the train_all wall time"),
    "train.outside_chunks_s": ("s", "lower", "train_all wall minus summed chunk seconds / workers"),
    "manifest.save_ensemble_s": ("s", "lower", "save_ensemble"),
    "train.chunk_matrix_s": ("s", "lower", "_chunk_matrix, summed over chunks"),
    "train.batch_step_s": ("s", "lower", "_batch_step, summed over chunks"),
    "train.loop_s": ("s", "lower", "train_chunk outside the timed calls, summed over chunks"),
    "train.self_s": ("s", "lower", "self time of the train layer, summed over chunks"),
    "train.batches": ("count", "lower", "batch steps, summed over chunks"),
    "model.apply_update_s": ("s", "lower", "apply_update, summed over chunks"),
    "model.adam_useful_frac": ("fraction", "higher", "non-zero W1 gradient entries over W1 "
                               "entries updated, mean over steps"),
    # the traced training runs after the untraced one, ~30 s later, so drift
    # in the host's load moves this figure by more than the spans cost
    "trace.train_overhead_frac": ("fraction", "lower", "traced over untraced train_all "
                                  "time, minus 1"),
}

# Layers whose self time the traced run must report, and the metric holding it.
LAYER_SELF_TIME = {
    "hashing": "hashing.murmur3_self_us",
    "features": "features.self_us",
    "model": "model.forward_us",
    "index": "index.self_us",
    "infer": "infer.self_us",
    "cli": "cli.self_us",
    "corpus": "cli.parse_us",
    "train": "train.self_s",
    "codes": "codes.build_codebook_s",
    "manifest": "manifest.load_ensemble_s",
}


def derive_seed(seed: int, name: str) -> int:
    """64-bit seed for one purpose, split off the workload seed."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(out)
