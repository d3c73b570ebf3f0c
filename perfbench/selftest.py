"""Self-test of the benchmark on a tiny configuration; takes about half a minute.

    python3 perfbench/selftest.py

It checks that

1. ``BENCHMARK.json`` names the metrics and units of ``workloads.py``, and an
   untraced and a traced run emit every one of them with its unit;
2. the traced run reports a non-zero self time for every listed layer;
3. a deliberately perturbed score trips the correctness gate and raises the
   failed share, while the clean runs fail nothing.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import sys

import run
from workloads import BASE, END_TO_END, LAYER_SELF_TIME, PER_LAYER, benchmark_json

TINY = dict(
    BASE,
    corpus_labels=200,
    num_labels=200,
    docs_per_label=10,
    noise_vocab=200,
    buckets=32,
    feature_dim=1024,
    hidden_dim=32,
    epochs=2,
    batch_size=50,
    cli_queries=400,
    trace_cli_queries=100,
    gate_queries=20,
    full_queries=50,
)
SEED = 7
SECONDS = 0.5


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(declared == benchmark_json(), "BENCHMARK.json matches the tables in workloads.py")

    tables = {False: END_TO_END, True: PER_LAYER}
    for trace, table in tables.items():
        units = {name: row[0] for name, row in table.items()}
        result = run.run("selftest", TINY, SEED, SECONDS, trace)
        line = run.final_line(result)
        emitted = {n: m["unit"] for n, m in line["metrics"].items()}
        expect(emitted == units, f"trace {int(trace)}: every metric emitted with its unit")
        numbers = all(isinstance(m["value"], float | int) for m in line["metrics"].values())
        expect(numbers, f"trace {int(trace)}: every value is a number")
        clean = line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        expect(clean, f"trace {int(trace)}: clean run fails nothing ({line['failed']} failed)")
        if trace:
            for layer, name in LAYER_SELF_TIME.items():
                value = result["layers"].get(name, 0)
                expect(value > 0, f"traced run: self time of layer {layer} ({name} = {value:.4g})")

    faulty = run.run("selftest", dict(TINY, fault="perturb_score"), SEED, SECONDS, False)
    line = run.final_line(faulty)
    tripped = not line["correct"] and line["failed"] > 0
    counts = f"{line['failed']} of {line['attempted']} failed"
    expect(tripped, f"perturbed score trips the gate ({counts})")
    expect("pruned_scores_exact" in faulty["failures"], "the failing check is pruned_scores_exact")

    print(f"{len(problems)} problem(s)" if problems else "all checks hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
