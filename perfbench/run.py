"""sparsix benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload catalog-2k --seed 1 --seconds 8 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run

1. writes the seeded corpus files (cached in ``.perfbench-work/inputs`` under
   the seed and a digest of ``src/sparsix`` and this directory),
2. in one child process: trains and saves the engine (timed), checks the
   reload, then serves the held-out queries from a one-client closed loop for
   ``--seconds`` in slices, each followed by ``sparsix predict`` over a part
   of the same queries, and checks every output,
3. times set-up in fresh interpreters (``probe.py``),

then prints a report and one JSON line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` additionally replays training, queries and
the predict command with spans around each module's calls, and reports the
per-layer metrics instead.  Full results go to ``.perfbench-work/results``,
spans to ``.perfbench-work/traces``.

Exit codes: 0 measured (checks may still have failed; see ``correct``),
1 the benchmark could not measure, 2 bad arguments or no program sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "sparsix"
WORK = ROOT / ".perfbench-work"
RUN_BUDGET_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CORPUS_KEYS = ("corpus_labels", "docs_per_label", "test_docs_per_label", "noise_vocab")

sys.path.insert(0, str(HERE))
from workloads import END_TO_END, PER_LAYER, PRINTED, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not take its measurements."""


def source_digest() -> str:
    """sha256 over the program's sources and the benchmark's own files."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Children:
    """Runs child steps in their own process groups, within one deadline."""

    def __init__(self, deadline: float, log: Path) -> None:
        self.deadline = deadline
        self.log = log

    def start(self, script: str, *args: object) -> subprocess.Popen:
        with self.log.open("a", encoding="utf-8") as log:
            return subprocess.Popen(
                [sys.executable, str(HERE / script), *map(str, args)],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )

    def finish(self, proc: subprocess.Popen, what: str) -> str:
        """Wait for the child, killing its whole group if the deadline passes."""
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._kill_group(proc)
            proc.communicate()
            raise BenchError(f"{what} did not finish within the run budget") from None
        finally:
            self._kill_group(proc)
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with code {proc.returncode}")
        return out

    def run(self, what: str, script: str, *args: object) -> str:
        return self.finish(self.start(script, *args), what)

    @staticmethod
    def _kill_group(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def prepare_inputs(children: Children, spec: dict, seed: int, digest: str) -> Path:
    """Corpus files for this seed, made once per seed, corpus shape and sources."""
    shape = json.dumps({k: spec[k] for k in CORPUS_KEYS}, sort_keys=True)
    key = hashlib.sha256(f"{seed}|{shape}|{digest}".encode()).hexdigest()[:20]
    final = WORK / "inputs" / key
    if (final / "queries.txt").is_file():
        return final
    tmp = WORK / "inputs" / f"{key}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    children.run("corpus generation", "child.py", "gen", json.dumps(spec), seed, tmp)
    try:
        os.rename(tmp, final)
    except OSError:  # another run made the same inputs first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def time_setup(children: Children, repeats: int, inputs: Path, manifest: Path) -> list[dict]:
    """Spawn-to-ready seconds of fresh interpreters, with each one's own split."""
    probes = []
    for _ in range(repeats):
        spawned = time.monotonic()
        out = children.run("set-up probe", "probe.py", inputs / "train.txt", manifest)
        split = json.loads(out.splitlines()[-1])
        # CLOCK_MONOTONIC is one clock for every process on the machine
        split["ready_s"] = split.pop("ready_monotonic") - spawned
        probes.append(split)
    return probes


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others, summed over this machine's CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
    }


def run(workload: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full result document."""
    started = time.monotonic()
    load_start = os.getloadavg()
    steal_start = steal_seconds()
    digest = source_digest()
    run_dir = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log = run_dir / "children.log"
    children = Children(started + RUN_BUDGET_S, log)
    try:
        inputs = prepare_inputs(children, spec, seed, digest)
        args = (json.dumps(spec), seed, seconds, int(trace), inputs, run_dir)
        children.run("measurement", "child.py", "measure", *args)
        measured = json.loads((run_dir / "measure.json").read_text(encoding="utf-8"))
        manifest = run_dir / "engine" / "manifest.json"
        probes = time_setup(children, spec["setup_repeats"], inputs, manifest)
        if trace:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            os.replace(run_dir / "spans.json.gz", traces / f"{workload}-seed{seed}.json.gz")
    except (BenchError, OSError, ValueError) as exc:
        tail = log.read_text(encoding="utf-8", errors="replace")[-4000:] if log.exists() else ""
        raise BenchError(f"{exc}\n{tail}") from None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = dict(measured["metrics"])
    metrics["setup_s"] = statistics.median(p["ready_s"] for p in probes)
    layers = dict(measured["layers"])
    for name in ("setup.import_s", "corpus.parse_s", "corpus.docs_per_s",
                 "codes.build_codebook_s", "manifest.load_ensemble_s", "index.build_index_s"):
        layers[name] = statistics.median(p[name] for p in probes)
    samples = dict(measured["samples"])
    samples["setup_s"] = f"{len(probes)} fresh interpreters, median"
    env = environment()
    env.update(measured["environment"])
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    env["steal_s"] = steal_seconds() - steal_start
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "source_digest": digest,
        "wall_s": time.monotonic() - started,
        "metrics": metrics,
        "samples": samples,
        "layers": layers,
        "cost_model": measured["cost_model"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "failures": measured["failures"],
        "probes": probes,
        "environment": env,
    }


def report(result: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric, checks, cost model, environment."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"]
    def row(name: str, value: float, unit: str, samples: str) -> str:
        return f"  {name:<18} {value:>14.6g} {unit:<13} n: {samples}"

    metrics, samples = result["metrics"], result["samples"]
    for name, (unit, *_) in END_TO_END.items():
        lines.append(row(name, metrics[name], unit, samples[name]))
    for name, (unit, _) in PRINTED.items():
        lines.append(row(name, metrics[name], unit, samples[name] + " (printed, not gated)"))
    attempted, failed = result["attempted"], result["failed"]
    ops = f"{failed} of {attempted} operations"
    lines.append(row("failed_frac", failed / attempted, "fraction", ops))
    for name, count in result["failures"].items():
        lines.append(f"  FAILED {name}: {count}")
    cost = result["cost_model"]
    lines.append(
        "cost model per query: unique candidates {unique_candidates:.1f}, retrieved "
        "{retrieved_candidates:.1f}, K*m*N/B {K*m*N/B:.1f}, op_count_bound "
        "{op_count_bound:.1f}, dense_op_count {dense_op_count:.1f}".format(**cost)
    )
    lines.append(
        "  note: _rank lexsorts every unique candidate, while op_count_bound prices "
        "a depth-5 heap push per retrieved candidate; reported, not fixed"
    )
    if result["trace"]:
        layers = result["layers"]
        for name, (unit, *_) in PER_LAYER.items():
            lines.append(f"  {name:<28} {layers[name]:>14.6g} {unit}")
        predict_us = layers["infer.predict_us"]
        back = layers["infer.candidates_us"] + layers["infer.score_us"] + layers["infer.rank_us"]
        lines.append(
            f"stage shares of a traced query: embed {layers['infer.embed_us'] / predict_us:.0%}, "
            f"candidates + scoring + ranking {back / predict_us:.0%}"
        )
    env = result["environment"]
    lines.append(
        f"environment: nproc {env['nproc']}, loadavg {env['loadavg_start'][0]:.2f} -> "
        f"{env['loadavg_end'][0]:.2f}, steal {env['steal_s']:.2f} s, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']}, {env['blas_env']}"
    )
    return lines


def final_line(result: dict) -> dict:
    table = PER_LAYER if result["trace"] else END_TO_END
    source = result["layers"] if result["trace"] else result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": row[0]} for name, row in table.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        spec = WORKLOADS[args.workload]
        result = run(args.workload, spec, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = final_line(result)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("\n".join(report(result)))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
