"""Command-line interface tests: config parsing, workflows, exit codes."""
from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import sparsix.codes
import sparsix.infer
import sparsix.manifest
import sparsix.model as model_mod
import sparsix.train as train_mod
from sparsix import cli
from sparsix.cli import (
    CONFIG_KEYS,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    _parse_ks,
    main,
    parse_config,
)
from conftest import save_untrained, traced_peak
from sparsix.corpus import make_separable_corpus, write_corpus
from sparsix.features import DocBlock
from sparsix.infer import InferParams, block_rows
from sparsix.manifest import _loading_bytes, load_manifest
from sparsix.metrics import evaluate
from sparsix.model import TrainConfig, _numpy_openblas, openblas_threads

DESK_CONFIG = """\
# desk-scale settings, everything tiny
corpus = train.txt
eval_corpus = test.txt
out_dir = engine
num_chunks = 2
buckets_per_chunk = 16
feature_dim = 128
hidden_dim = 8
epochs = 4
batch_size = 16
lr = 5e-3
"""

# feature_dim x hidden_dim parameters alone take more than 2**64 bytes
HUGE_MODEL = "feature_dim = 4294967295\nhidden_dim = 2147483648\n"


def with_settings(config: str, settings: str) -> str:
    """``config`` with each ``key = value`` line of ``settings`` in place of that key's line.

    A key may be set only once, so a setting replaces the line rather than following it.
    """
    lines = config.splitlines()
    for setting in settings.splitlines():
        key = setting.partition("=")[0].strip()
        lines = [line for line in lines if line.partition("=")[0].strip() != key] + [setting]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """A config, corpora, and a trained engine shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    train, test, num_features = make_separable_corpus(
        num_labels=20,
        tokens_per_label=3,
        docs_per_label=4,
        tokens_per_doc=2,
        noise_tokens=1,
        noise_vocab=50,
        test_docs_per_label=1,
        seed=11,
    )
    write_corpus(root / "train.txt", train, num_features, 20)
    write_corpus(root / "test.txt", test, num_features, 20)
    (root / "desk.cfg").write_text(DESK_CONFIG, encoding="utf-8")
    rc = main(["train", "--config", str(root / "desk.cfg")])
    assert rc == EXIT_OK
    manifest = root / "engine" / "manifest.json"
    assert manifest.is_file()
    return root


# Each command and the flag or config key through which it reads a corpus
CORPUS_INPUTS = [
    ("train", "corpus"),
    ("sweep", "corpus"),
    ("sweep", "eval_corpus"),
    ("predict", "--corpus"),
    ("eval", "--corpus"),
]


def corpus_argv(workspace: Path, tmp_path: Path, command: str, key: str, corpus: Path) -> list[str]:
    """``command``'s argv reading ``corpus`` through ``key``, its other inputs from ``workspace``.

    Outputs go under ``tmp_path``: ``p.tsv`` for predict and ``engine`` for train.
    """
    if key == "--corpus":
        manifest = workspace / "engine" / "manifest.json"
        argv = [command, "--manifest", str(manifest), "--corpus", str(corpus), "--m", "4"]
        if command == "predict":
            argv += ["--out", str(tmp_path / "p.tsv")]
        return argv
    paths = {"corpus": workspace / "train.txt", "eval_corpus": workspace / "test.txt"}
    paths[key] = corpus
    settings = "".join(f"{k} = {v}\n" for k, v in paths.items())
    text = with_settings(DESK_CONFIG, settings + f"out_dir = {tmp_path / 'engine'}")
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    argv = [command, "--config", str(tmp_path / "run.cfg")]
    if command == "sweep":
        argv += ["--buckets", "8", "--chunks", "2", "--m", "2"]
    return argv


class TestParseConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "t.cfg"
        p.write_text(text, encoding="utf-8")
        return p

    def test_defaults_filled(self, tmp_path):
        (tmp_path / "c.txt").write_text("0 1 1\n")
        p = self.write(tmp_path, "corpus = c.txt\n")
        values = parse_config(p)
        for key, (_, default) in CONFIG_KEYS.items():
            if key not in ("corpus", "out_dir"):
                assert values.get(key) == default
        assert values["corpus"].endswith("c.txt")

    def test_paths_resolved_against_config_dir(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        p = sub / "t.cfg"
        p.write_text("corpus = data/c.txt\nout_dir = models/x\n", encoding="utf-8")
        values = parse_config(p)
        assert values["corpus"] == str(sub / "data" / "c.txt")
        assert values["out_dir"] == str(sub / "models" / "x")

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = self.write(tmp_path, "# comment\n\ncorpus = c.txt\n# epochs = 99\nepochs = 3\n")
        assert parse_config(p)["epochs"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        p = self.write(tmp_path, "corpus = c.txt\nlearning_rate = 0.1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = self.write(tmp_path, "corpus = c.txt\nepochs = many\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config(p)

    @pytest.mark.parametrize("line", ["num_chunks = +2", "epochs = 1_0", "workers = \u0662"])
    def test_integer_is_ascii_decimal_digits(self, tmp_path, line):
        """As in a corpus: no sign, no ``_`` and no other script's digits (here Arabic-Indic 2)."""
        p = self.write(tmp_path, f"corpus = c.txt\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: bad value"):
            parse_config(p)

    @pytest.mark.parametrize("raw", ["1_0e-3", "\u0661e-3"])
    def test_float_is_ascii_without_underscores(self, tmp_path, raw):
        """As a float-form count in a corpus: no ``_`` and no other script's digits
        (here Arabic-Indic 1), where ``float`` would read 0.01 and 0.001."""
        p = self.write(tmp_path, f"corpus = c.txt\nlr = {raw}\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(p))}:2: bad value {re.escape(repr(raw))} for lr "
        ):
            parse_config(p)
        assert parse_config(self.write(tmp_path, "corpus = c.txt\nlr = 2e-3\n"))["lr"] == 0.002

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "t.cfg"
        p.write_bytes(b"corpus = c.txt\nepochs = 3\xff\n")
        with pytest.raises(ValueError) as info:
            parse_config(p)
        assert str(info.value) == f"{p}:2: byte 0xff is not UTF-8"

    def test_lines_end_only_at_newlines(self, tmp_path):
        """A form feed, ``\\x1c``-``\\x1e``, ``\\x85`` or ``\\u2028`` does not end a line, as in
        a corpus; a bad key on a later line is named by the line number an editor shows."""
        p = self.write(tmp_path, "corpus = c.txt\nepochs\x0c= 3\ncode_seed = 1\x85\u2028\x1c\n")
        assert parse_config(p)["epochs"] == 3
        p = self.write(tmp_path, "corpus = c.txt\r\nepochs\x0c= 3\x1e\rnope = 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: unknown config key 'nope'$"):
            parse_config(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = self.write(tmp_path, "corpus c.txt\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config(p)

    def test_missing_corpus_rejected(self, tmp_path):
        p = self.write(tmp_path, "epochs = 3\n")
        with pytest.raises(ValueError, match="corpus"):
            parse_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_workers_env_override(self, tmp_path, monkeypatch):
        p = self.write(tmp_path, "corpus = c.txt\nworkers = 2\n")
        monkeypatch.setenv("SPARSIX_WORKERS", "5")
        assert parse_config(p)["workers"] == 5
        monkeypatch.setenv("SPARSIX_WORKERS", "lots")
        with pytest.raises(ValueError, match="SPARSIX_WORKERS"):
            parse_config(p)
        monkeypatch.setenv("SPARSIX_WORKERS", "\u0662")
        with pytest.raises(ValueError, match="SPARSIX_WORKERS"):
            parse_config(p)

    def test_parse_ks(self):
        assert _parse_ks("1,5,10") == (1, 5, 10)
        assert _parse_ks("1, 5") == (1, 5)
        with pytest.raises(ValueError):
            _parse_ks("1,+5")
        with pytest.raises(ValueError):
            _parse_ks("1,zero")
        with pytest.raises(ValueError):
            _parse_ks("0,5")
        with pytest.raises(ValueError):
            _parse_ks("")


class TestWorkflows:
    def test_eval_reports_metrics(self, workspace, capsys):
        rc = main(
            [
                "eval",
                "--manifest", str(workspace / "engine" / "manifest.json"),
                "--corpus", str(workspace / "test.txt"),
                "--m", "16",
                "--ks-precision", "1,5",
                "--ks-recall", "10",
                "--json", str(workspace / "report.json"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "precision_at_1 = " in out
        assert "recall_at_10 = " in out
        assert "latency_p50_ms = " in out
        assert (workspace / "report.json").is_file()

    def test_predict_sparse_at_full_width_matches_full_mode(self, workspace, capsys):
        common = [
            "--manifest", str(workspace / "engine" / "manifest.json"),
            "--corpus", str(workspace / "test.txt"),
            "--top-k", "5",
        ]
        rc1 = main(["predict", *common, "--out", str(workspace / "sparse.tsv"), "--m", "16"])
        rc2 = main(["predict", *common, "--out", str(workspace / "full.tsv"), "--mode", "full"])
        capsys.readouterr()
        assert rc1 == rc2 == EXIT_OK
        sparse = (workspace / "sparse.tsv").read_bytes()
        full = (workspace / "full.tsv").read_bytes()
        assert sparse == full

    def test_prediction_line_format(self, workspace):
        lines = (workspace / "sparse.tsv").read_text().splitlines()
        assert len(lines) == 20  # one per test query
        doc_id, _, rest = lines[0].partition("\t")
        assert doc_id.isdigit()
        pairs = rest.split(" ")
        assert len(pairs) == 5
        for pair in pairs:
            label, _, score = pair.partition(":")
            assert label.isdigit()
            whole, frac = score.split(".")
            assert len(frac) == 6

    def test_sweep_table_shape(self, workspace, capsys):
        rc = main(
            [
                "sweep",
                "--config", str(workspace / "desk.cfg"),
                "--buckets", "8,16",
                "--chunks", "2",
                "--m", "2,4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0] == "buckets\tchunks\tm\tp_at_1\tp_at_3\tp_at_5\tms_per_point\tstatus"
        rows = lines[1:]
        assert len(rows) == 4  # two bucket counts x one chunk count x two m values
        for row in rows:
            cells = row.split("\t")
            assert len(cells) == 8
            assert cells[7] == "ok"

    def test_verify_suite_passes(self, workspace, capsys):
        rc = main(["verify", "--manifest", str(workspace / "engine" / "manifest.json")])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "FAIL" not in out
        for name in (
            "code-orthogonality",
            "index-balance",
            "gradient-check",
            "basis-equivalence",
            "retrieval-equivalence",
            "manifest-checksums",
        ):
            assert f"PASS {name}" in out


def count_builds(patch: pytest.MonkeyPatch) -> list:
    """Count the codebook builds made through any sparsix module's ``build_codebook``."""
    calls: list = []
    real = sparsix.codes.build_codebook

    def counting(config):
        calls.append(config)
        return real(config)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sparsix" and getattr(module, "build_codebook", None) is real:
            patch.setattr(module, "build_codebook", counting)
    return calls


_CHUNK_TASK = train_mod._train_chunk_task


def _chunk_task_counting_builds(payload):
    """A chunk task whose last field is the number of codebooks it built, in its process."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_builds(patch)
        model, curve, _ = _CHUNK_TASK(payload)
    return model, curve, len(calls)


def pairwise_prediction(doc_id, labels, scores) -> str:
    """A prediction line built one f-string per pair."""
    pairs = " ".join(f"{l}:{s:.6f}" for l, s in zip(labels.tolist(), scores.tolist()))
    return f"{doc_id}\t{pairs}"


class TestFormatPrediction:
    @pytest.mark.parametrize(
        "labels, scores",
        [
            ([7], [0.5]),  # top_k 1
            ([3, 1, 2, 0], [float("nan"), float("inf"), -float("inf"), -0.0]),
            ([2**53 + 1, 2**63 - 1, 0], [1e-7, 5e-7, 123456.0000005]),
            ([], []),
        ],
    )
    def test_matches_one_f_string_per_pair(self, labels, scores):
        labels, scores = np.array(labels, dtype=np.int64), np.array(scores, dtype=np.float64)
        line = cli._format_prediction(2**64 - 1, labels, scores)
        assert line == pairwise_prediction(2**64 - 1, labels, scores)

    def test_random_lines_match(self):
        rng = np.random.default_rng(4)
        for top_k in (1, 2, 100):
            labels = rng.integers(0, 2**63 - 1, top_k, dtype=np.int64)
            scores = rng.standard_normal(top_k) * 10.0 ** rng.integers(-8, 8, top_k)
            assert cli._format_prediction(9, labels, scores) == pairwise_prediction(9, labels, scores)


class TestOneCodebookBuild:
    def test_each_caller_builds_its_codebook_once(
        self, workspace, tiny_engine, monkeypatch, capsys
    ):
        """No chunk, serial or in a pool, builds a codebook, nor does ``evaluate``; a sweep
        builds one per (B, K) cell and ``eval`` one, whatever the number of m values."""
        monkeypatch.setattr(train_mod, "_train_chunk_task", _chunk_task_counting_builds)
        calls = count_builds(monkeypatch)
        ensemble = tiny_engine.ensemble
        cb = sparsix.codes.build_codebook(ensemble.code_config)
        for workers in (1, 2):
            cfg = TrainConfig(epochs=1, batch_size=64, workers=workers)
            result = train_mod.train_all(tiny_engine.train_docs, cb, ensemble.engine, cfg)
            assert result.chunk_seconds == [0, 0, 0, 0], workers
        params = InferParams(m=4, top_k=100)
        evaluate(ensemble, cb, tiny_engine.idx, tiny_engine.test_docs, params)
        assert len(calls) == 1

        manifest = workspace / "engine" / "manifest.json"
        corpus = workspace / "test.txt"
        rc = main(["eval", "--manifest", str(manifest), "--corpus", str(corpus), "--m", "4"])
        assert rc == EXIT_OK and len(calls) == 2
        sweep = ["sweep", "--config", str(workspace / "desk.cfg"), "--buckets", "8,16"]
        rc = main([*sweep, "--chunks", "2", "--m", "2,4"])
        assert rc == EXIT_OK and len(calls) == 4
        capsys.readouterr()


class TestOneTokenSort:
    def test_train_and_sweep_sort_the_token_ids_once(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        """The memory checks of train and of every sweep cell share one count of the
        corpus's distinct token ids, sorted once per block."""
        prop = DocBlock.__dict__["distinct_tokens"]
        calls = []
        counting = lambda block, real=prop.func: calls.append(block) or real(block)  # noqa: E731
        monkeypatch.setattr(prop, "func", counting)
        paths = f"corpus = {workspace / 'train.txt'}\neval_corpus = {workspace / 'test.txt'}"
        config = tmp_path / "run.cfg"
        config.write_text(with_settings(DESK_CONFIG, paths), encoding="utf-8")
        assert main(["train", "--config", str(config)]) == EXIT_OK and len(calls) == 1
        sweep = ["sweep", "--config", str(config), "--buckets", "8,16", "--chunks", "2", "--m", "2"]
        assert main(sweep) == EXIT_OK and len(calls) == 2
        capsys.readouterr()


class TestExitCodes:
    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.cfg")])
        capsys.readouterr()
        assert rc == EXIT_VALIDATION

    def test_unknown_subcommand_is_validation_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        capsys.readouterr()
        assert exc.value.code == EXIT_VALIDATION

    def test_bad_flag_value_is_validation_error(self, workspace, capsys):
        rc = main(
            [
                "eval",
                "--manifest", str(workspace / "engine" / "manifest.json"),
                "--corpus", str(workspace / "test.txt"),
                "--ks-precision", "nope",
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "flags", [["--ks-precision", "1,x"], ["--ks-recall", "0"], ["--m", "0"]]
    )
    def test_bad_eval_flag_fails_before_the_corpus_is_read(
        self, workspace, tmp_path, capsys, monkeypatch, flags
    ):
        """eval checks its flags first: a bad one costs no parse, and the error names the
        flag even when the corpus is missing too."""
        monkeypatch.setattr(cli, "parse_corpus", pytest.fail)
        missing = tmp_path / "absent.txt"
        rc = main(
            ["eval", "--manifest", str(workspace / "engine" / "manifest.json"),
             "--corpus", str(missing), *flags]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: " in err and str(missing) not in err and "Traceback" not in err

    def test_corrupt_blob_is_verify_error(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "engine", broken)
        blob = broken / "chunk_0000.bin"
        raw = bytearray(blob.read_bytes())
        raw[-1] ^= 0xFF
        blob.write_bytes(bytes(raw))
        rc = main(
            [
                "predict",
                "--manifest", str(broken / "manifest.json"),
                "--corpus", str(workspace / "test.txt"),
                "--out", str(tmp_path / "p.tsv"),
                "--m", "4",
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_VERIFY

        rc = main(["verify", "--manifest", str(broken / "manifest.json")])
        out = capsys.readouterr().out
        assert rc == EXIT_VERIFY
        assert "FAIL manifest-checksums" in out

    def test_non_utf8_manifest_is_validation_error(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b"{\xff}")
        out = tmp_path / "p.tsv"
        rc = main(
            [
                "predict",
                "--manifest", str(manifest),
                "--corpus", str(workspace / "test.txt"),
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert f"error: unreadable manifest {manifest}: " in err and "Traceback" not in err
        assert not out.exists()

    def test_grouped_lr_and_empty_train_config_are_validation_errors(
        self, workspace, tmp_path, capsys
    ):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("corpus = c.txt\nlr = 1_0e-3\n", encoding="utf-8")
        rc = main(["train", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert f"error: {cfg}:2: bad value '1_0e-3' for lr (expected float)" in err
        engine = tmp_path / "engine"
        shutil.copytree(workspace / "engine", engine)
        doc = json.loads((engine / "manifest.json").read_text())
        doc["train_config"] = {}
        (engine / "manifest.json").write_text(json.dumps(doc))
        rc = main(["verify", "--manifest", str(engine / "manifest.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: malformed manifest" in err and "Traceback" not in err

    def test_verify_reads_the_manifest_before_any_check(self, tmp_path, capsys):
        rc = main(["verify", "--manifest", str(tmp_path / "absent.json")])
        out, err = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert out == ""  # no check ran, so no PASS line
        assert "error: unreadable manifest" in err and "Traceback" not in err

    def test_deeply_nested_manifest_is_validation_error(self, tmp_path, capsys):
        """json.loads gives up on nesting this deep with a RecursionError, not a JSONDecodeError."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        rc = main(["verify", "--manifest", str(manifest)])
        out, err = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert f"error: unreadable manifest {manifest}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_engine_over_memory_is_validation_error(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        """An engine larger than the machine fails before any blob is read, --out untouched."""
        manifest = workspace / "engine" / "manifest.json"
        need = _loading_bytes(load_manifest(manifest))
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: need - 1)
        out = tmp_path / "p.tsv"
        out.write_bytes(b"0\t1:0.500000\n")
        argv = [command, "--manifest", str(manifest), "--corpus", str(workspace / "test.txt")]
        rc = main(argv + (["--out", str(out)] if command == "predict" else []))
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: loading" in err and "GiB but this machine has" in err
        assert "Traceback" not in err
        assert out.read_bytes() == b"0\t1:0.500000\n"

    @pytest.mark.parametrize("damage", ["missing", "corrupted", "empty"])
    def test_blob_fault_on_an_engine_that_fits_is_verify_error(
        self, workspace, tmp_path, capsys, monkeypatch, damage
    ):
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "engine", broken)
        need = _loading_bytes(load_manifest(broken / "manifest.json"))
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: need)
        blob = broken / "chunk_0001.bin"
        if damage == "missing":
            blob.unlink()
        elif damage == "empty":  # a zero-byte file, which cannot be mapped
            blob.write_bytes(b"")
        else:
            raw = bytearray(blob.read_bytes())
            raw[-1] ^= 0xFF
            blob.write_bytes(bytes(raw))
        rc = main(
            [
                "predict",
                "--manifest", str(broken / "manifest.json"),
                "--corpus", str(workspace / "test.txt"),
                "--out", str(tmp_path / "p.tsv"),
                "--m", "4",
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_VERIFY
        reason = "missing model blob" if damage == "missing" else "checksum mismatch"
        assert f"error: {reason}" in err and "Traceback" not in err

    def test_other_adam_constant_in_manifest_is_validation_error(
        self, workspace, tmp_path, capsys
    ):
        older = tmp_path / "older"
        shutil.copytree(workspace / "engine", older)
        doc = json.loads((older / "manifest.json").read_text())
        doc["train_config"].update(beta1=0.8, beta2=0.999, adam_eps=1e-08)
        (older / "manifest.json").write_text(json.dumps(doc))
        rc = main(
            [
                "predict",
                "--manifest", str(older / "manifest.json"),
                "--corpus", str(workspace / "test.txt"),
                "--out", str(tmp_path / "p.tsv"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: " in err and "beta1" in err

    @pytest.mark.parametrize("command", ["predict", "verify"])
    @pytest.mark.parametrize(
        "edit",
        [
            {"train_config": {"beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-08}},
            {"train_config": {"beta1": 0.8, "beta2": 0.999, "adam_eps": 1e-08}},
            {"engine": {"hidden_units": 16}},
        ],
        ids=["standard-adam", "other-adam", "unknown-engine-key"],
    )
    def test_version_1_manifest_fails_with_its_version(
        self, workspace, tmp_path, capsys, command, edit
    ):
        """Whatever else a version-1 manifest holds, its version is the error."""
        older = tmp_path / "older"
        shutil.copytree(workspace / "engine", older)
        doc = json.loads((older / "manifest.json").read_text())
        doc["format_version"] = 1
        for section, fields in edit.items():
            doc[section].update(fields)
        (older / "manifest.json").write_text(json.dumps(doc))
        manifest = ["--manifest", str(older / "manifest.json")]
        rc = main(
            {
                "predict": ["predict", *manifest, "--corpus", str(workspace / "test.txt"),
                            "--out", str(tmp_path / "p.tsv")],
                "verify": ["verify", *manifest],
            }[command]
        )
        out, err = capsys.readouterr()
        assert rc == EXIT_VALIDATION and out == ""
        message = "unsupported manifest version 1, this build reads version 2"
        assert err == f"error: {message}\n"
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"code_config": {"num_labels": 2000.0}}, "num_labels must be an integer"),
            ({"code_config": {"num_labels": True}}, "num_labels must be an integer"),
            ({"code_config": {"num_labels": 10**12}}, "GiB but this machine has"),
            ({"blob": {"sha256": 5}}, "sha256 must be 64 lowercase hex digits"),
            ({"format_version": "1"}, "unsupported manifest version '1'"),
            ({"format_version": 1}, "unsupported manifest version 1, this build reads version 2"),
            ({"format_version": True}, "unsupported manifest version True"),
            ({"train_config": {"lr": True}}, "lr must be positive and finite, got True"),
            ({"blob": {"path": "/etc/passwd"}}, "path must be relative"),
            ({"blob": {"path": "x" * 5000}}, "missing model blob"),
            ({"blob": {"path": "a-directory"}}, "missing model blob"),
            ({"engine": {"feature_seed": 2**70}}, "feature_seed must be an integer"),
            ("feature_seed = -1\n", "feature_seed must be an integer"),
            ("epochs = 2\n", "run.cfg:12: epochs is already set on line 9"),
        ],
        ids=[
            "num_labels-float", "num_labels-bool", "num_labels-1e12", "sha256-int",
            "version-str", "version-1", "version-bool", "lr-bool", "path-absolute", "path-too-long",
            "path-directory", "feature_seed-2**70",
            "config-seed-negative", "config-repeated-key",
        ],
    )
    def test_bad_manifest_or_config_fails_cleanly(
        self, workspace, tmp_path, capsys, edit, message
    ):
        """A bad manifest field fails predict, and a bad config line fails train, with
        an error line and exit 1 or 3, and leaves the output as it was."""
        if isinstance(edit, str):  # appended as is, after the desk config's own lines
            text = DESK_CONFIG.replace("corpus = train.txt", f"corpus = {workspace / 'train.txt'}")
            (tmp_path / "run.cfg").write_text(text + edit, encoding="utf-8")
            rc = main(["train", "--config", str(tmp_path / "run.cfg")])
            assert not (tmp_path / "engine").exists()
        else:
            engine = tmp_path / "edited"
            shutil.copytree(workspace / "engine", engine)
            (engine / "a-directory").mkdir()
            doc = json.loads((engine / "manifest.json").read_text())
            for section, change in edit.items():
                if section == "blob":
                    doc["blobs"][0].update(change)
                elif isinstance(change, dict):
                    doc[section].update(change)
                else:
                    doc[section] = change
            (engine / "manifest.json").write_text(json.dumps(doc))
            out = tmp_path / "p.tsv"
            out.write_bytes(b"0\t1:0.500000\n")
            rc = main(
                [
                    "predict",
                    "--manifest", str(engine / "manifest.json"),
                    "--corpus", str(workspace / "test.txt"),
                    "--out", str(out),
                    "--m", "4",
                ]
            )
            assert out.read_bytes() == b"0\t1:0.500000\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["edited", "p.tsv"]
        err = capsys.readouterr().err
        assert rc in (EXIT_VALIDATION, EXIT_VERIFY)
        assert "error: " in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "too-long"])
    @pytest.mark.parametrize("command, key", CORPUS_INPUTS)
    def test_corpus_naming_no_file_is_validation_error(
        self, workspace, tmp_path, capsys, command, key, kind
    ):
        """A corpus path that names nothing, names a directory, or is too long for
        the file system is a bad input file: exit 1, an error naming the path."""
        bad = {
            "missing": tmp_path / "absent.txt",
            "directory": tmp_path,
            "too-long": tmp_path / ("x" * 5000),
        }[kind]
        rc = main(corpus_argv(workspace, tmp_path, command, key, bad))
        out, err = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert f"error: cannot read corpus {bad}: " in err and "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "engine").exists() and not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("line_no", [1, 2])
    @pytest.mark.parametrize("command, key", CORPUS_INPUTS)
    def test_non_utf8_byte_names_its_line(self, workspace, tmp_path, capsys, command, key, line_no):
        """Byte 0xff, which UTF-8 never uses, ends the header or the first data line."""
        source = workspace / ("test.txt" if key == "eval_corpus" else "train.txt")
        lines = source.read_bytes().split(b"\n")
        lines[line_no - 1] += b"\xff"
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\n".join(lines))
        rc = main(corpus_argv(workspace, tmp_path, command, key, bad))
        out, err = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert f"error: {bad}:{line_no}: byte 0xff is not UTF-8" in err and "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "engine").exists() and not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_catalog_over_memory_fails_before_the_codebook(self, tmp_path, capsys, command):
        """10**12 labels need a 7.3 TiB codebook per copy: the check says so, not NumPy."""
        (tmp_path / "c.txt").write_text("2 10 1000000000000\n0 1:1\n999999999999 3:1\n")
        text = with_settings(DESK_CONFIG, "corpus = c.txt\neval_corpus = c.txt")
        (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
        argv = ["--config", str(tmp_path / "run.cfg")]
        if command == "sweep":
            argv += ["--buckets", "16", "--chunks", "2", "--m", "2"]
        rc = main([command, *argv])
        out, err = capsys.readouterr()
        message = "GiB but this machine has"
        if command == "train":
            assert rc == EXIT_VALIDATION and message in err
        else:  # a sweep records each failing cell in its table and goes on
            assert rc == EXIT_OK and "error: training needs about" in out and message in out
        assert "num_labels (1000000000000)" in out + err and "Traceback" not in err
        assert not (tmp_path / "engine").exists()

    def test_corpus_error_is_validation_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 10 5\n0 1:nope\n", encoding="utf-8")
        rc = main(
            [
                "predict",
                "--manifest", str(workspace / "engine" / "manifest.json"),
                "--corpus", str(bad),
                "--out", str(tmp_path / "p.tsv"),
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "flags",
        [
            ["--m", "17"],
            ["--m", "0"],
            ["--top-k", "0"],
            ["--mode", "full", "--top-k", "0"],
            ["--m", "+3"],
            ["--m", "4", "--top-k", "1_0"],
            ["--mode", "full", "--m", "0"],
        ],
    )
    def test_bad_predict_flags_leave_out_intact(self, workspace, tmp_path, capsys, flags):
        """The engine has B = 16; flags it cannot serve, or whose text is not ASCII
        decimal digits, fail and leave --out as it was."""
        out = tmp_path / "p.tsv"
        out.write_bytes(b"0\t1:0.500000\n")
        argv = [
            "predict",
            "--manifest", str(workspace / "engine" / "manifest.json"),
            "--corpus", str(workspace / "test.txt"),
            "--out", str(out),
            *flags,
        ]
        try:
            rc = main(argv)
        except SystemExit as exc:  # the parser rejects a flag's text before any command runs
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: " in err and "Traceback" not in err
        assert out.read_bytes() == b"0\t1:0.500000\n"

    @pytest.mark.parametrize("case", ["malformed", "empty", "malformed-after-valid"])
    def test_bad_corpus_leaves_out_intact(self, workspace, tmp_path, capsys, case):
        """A corpus that fails mid-stream, or holds no queries, leaves --out as it was."""
        valid = (workspace / "test.txt").read_text(encoding="utf-8").splitlines()
        _, num_features, num_labels = valid[0].split()
        text = {
            "malformed": f"1 {num_features} {num_labels}\n0 1:nope\n",
            "empty": f"0 {num_features} {num_labels}\n",
            "malformed-after-valid": "\n".join(
                [f"{len(valid)} {num_features} {num_labels}", *valid[1:], "0 1:nope", ""]
            ),
        }[case]
        corpus = tmp_path / "queries.txt"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "p.tsv"
        out.write_bytes(b"0\t1:0.500000\n")
        rc = main(
            [
                "predict",
                "--manifest", str(workspace / "engine" / "manifest.json"),
                "--corpus", str(corpus),
                "--out", str(out),
                "--m", "4",
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: " in err and "Traceback" not in err
        assert ("no queries" if case == "empty" else "queries.txt:") in err
        assert out.read_bytes() == b"0\t1:0.500000\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.tsv", "queries.txt"]

    def train_with(self, workspace, tmp_path, lr="5e-3", corpus=None, extra=""):
        text = DESK_CONFIG.replace("lr = 5e-3", f"lr = {lr}")
        text = text.replace("corpus = train.txt", f"corpus = {corpus or workspace / 'train.txt'}")
        text = with_settings(text, extra)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        return main(["train", "--config", str(cfg)])

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_validation_error(self, workspace, tmp_path, capsys, lr):
        rc = self.train_with(workspace, tmp_path, lr=lr)
        assert rc == EXIT_VALIDATION
        assert "lr must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "engine" / "manifest.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_diverging_run_is_runtime_error(self, workspace, tmp_path, capsys):
        rc = self.train_with(workspace, tmp_path, lr="1e300")
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert "error: " in err and "non-finite gradient" in err
        assert "Traceback" not in err

    def test_corpus_overflow_is_validation_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "huge.txt"
        bad.write_text("1 10 5\n0 3:100000000000000000000\n", encoding="utf-8")
        rc = self.train_with(workspace, tmp_path, corpus=bad)
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "huge.txt:2: " in err and "Traceback" not in err

    def test_bad_line_past_the_first_window(self, workspace, tmp_path, capsys):
        """A bad line deep in a corpus fails predict and train before they write anything."""
        valid = (workspace / "test.txt").read_text(encoding="utf-8").splitlines()
        _, num_features, num_labels = valid[0].split()
        lines = [valid[1 + i % (len(valid) - 1)] for i in range(5200)]
        lines[4998] = "0 1:nope"  # line 5,000 of the file, after the header
        corpus = tmp_path / "big.txt"
        corpus.write_text(
            "\n".join([f"{len(lines)} {num_features} {num_labels}", *lines, ""]), encoding="utf-8"
        )
        out = tmp_path / "p.tsv"
        out.write_bytes(b"0\t1:0.500000\n")
        rc = main(
            [
                "predict",
                "--manifest", str(workspace / "engine" / "manifest.json"),
                "--corpus", str(corpus),
                "--out", str(out),
                "--m", "4",
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "big.txt:5000: " in err and "Traceback" not in err
        assert out.read_bytes() == b"0\t1:0.500000\n"

        rc = self.train_with(workspace, tmp_path, corpus=corpus)
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "big.txt:5000: " in err and "Traceback" not in err
        assert not (tmp_path / "engine").exists()

    @pytest.mark.parametrize(
        "setting", ["buckets_per_chunk = 4294967301", "feature_dim = 4294967301"]
    )
    def test_oversized_config_is_validation_error(self, workspace, tmp_path, capsys, setting):
        rc = self.train_with(workspace, tmp_path, extra=setting + "\n")
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: " in err and "Traceback" not in err
        assert not (tmp_path / "engine" / "manifest.json").exists()

    def test_training_over_memory_is_validation_error(self, workspace, tmp_path, capsys):
        """A run no machine could hold fails before it trains, naming the knobs."""
        rc = self.train_with(workspace, tmp_path, extra=HUGE_MODEL)
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: training needs about" in err and "Traceback" not in err
        assert "hidden_dim (2147483648), feature_dim (4294967295), workers (1)" in err
        assert not (tmp_path / "engine").exists()

    def test_sweep_records_a_cell_over_memory(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        text = DESK_CONFIG.replace("train.txt", str(workspace / "train.txt"))
        text = text.replace("test.txt", str(workspace / "test.txt"))
        cfg.write_text(with_settings(text, HUGE_MODEL))
        rc = main(["sweep", "--config", str(cfg), "--buckets", "8", "--chunks", "2", "--m", "2"])
        rows = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK
        assert rows[1].startswith("8\t2\t2\t-\t") and "\terror: training needs about" in rows[1]

    def desk_config(self, workspace, tmp_path, settings: str = "") -> Path:
        paths = f"corpus = {workspace / 'train.txt'}\neval_corpus = {workspace / 'test.txt'}"
        cfg = tmp_path / "run.cfg"
        text = with_settings(DESK_CONFIG, f"{paths}\nout_dir = {tmp_path / 'engine'}\n{settings}")
        cfg.write_text(text, encoding="utf-8")
        return cfg

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ("epochs = 0", "epochs must be an integer >= 1, got 0"),
            ("lr = nan", "lr must be positive and finite, got nan"),
            (
                "buckets_per_chunk = 0",
                "buckets_per_chunk must be an integer in [2, 2147483648], got 0",
            ),
            # the config key, not CodeConfig's field of the same value
            (
                "code_seed = 18446744073709551616",
                "code_seed must be an integer in [0, 18446744073709551615], "
                "got 18446744073709551616",
            ),
        ],
    )
    def test_value_out_of_range_names_its_line(
        self, workspace, tmp_path, capsys, command, setting, message
    ):
        """A value of the right type but out of range fails at ``<config>:<line>`` as a
        wrong-type value does, before anything is trained; a sweep's flags override
        buckets_per_chunk, yet the config's own line still fails."""
        cfg = self.desk_config(workspace, tmp_path, setting)
        line_no = cfg.read_text(encoding="utf-8").splitlines().index(setting) + 1
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            argv += ["--buckets", "8", "--chunks", "2", "--m", "2"]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == EXIT_VALIDATION
        assert f"error: {cfg}:{line_no}: {message}\n" in err and "Traceback" not in err
        assert out == "" and not (tmp_path / "engine").exists()

    def test_out_of_range_workers_from_the_environment_keeps_its_message(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """SPARSIX_WORKERS, not a config line, sets the value: no line to name."""
        monkeypatch.setenv("SPARSIX_WORKERS", "0")
        rc = main(["train", "--config", str(self.desk_config(workspace, tmp_path))])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert err == "error: workers must be an integer >= 1, got 0\n"

    def test_sweep_flag_out_of_range_is_a_cell_error(self, workspace, tmp_path, capsys):
        cfg = self.desk_config(workspace, tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--buckets", "1,8", "--chunks", "2", "--m", "2"])
        rows = capsys.readouterr().out.splitlines()
        assert rc == EXIT_OK
        assert rows[1] == (
            "1\t2\t2\t-\t-\t-\t-\terror: buckets_per_chunk must be an integer in "
            "[2, 2147483648], got 1"
        )
        assert rows[2].startswith("8\t2\t2\t") and rows[2].endswith("\tok")

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_m_above_b_fails_before_any_blob_or_table(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        """The engine has B = 16: --m 17 fails from the manifest, output file untouched."""
        monkeypatch.setattr(sparsix.manifest, "_load_blob", pytest.fail)
        monkeypatch.setattr(sparsix.manifest, "build_codebook", pytest.fail)
        out = tmp_path / "out"
        out.write_bytes(b"keep\n")
        manifest = workspace / "engine" / "manifest.json"
        argv = [command, "--manifest", str(manifest), "--corpus", str(workspace / "test.txt")]
        rc = main([*argv, "--m", "17", "--out" if command == "predict" else "--json", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert err == "error: m must be in [1, 16], got 17\n"
        assert out.read_bytes() == b"keep\n"

    def test_full_mode_ignores_m_and_builds_no_index(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        manifest = workspace / "engine" / "manifest.json"
        argv = ["predict", "--manifest", str(manifest), "--corpus", str(workspace / "test.txt")]
        assert main([*argv, "--mode", "full", "--out", str(tmp_path / "a.tsv")]) == EXIT_OK
        monkeypatch.setattr(sparsix.manifest, "build_index", pytest.fail)
        rc = main([*argv, "--mode", "full", "--m", "17", "--out", str(tmp_path / "b.tsv")])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        # full mode never bounds m by B, but m must still be a positive integer
        rc = main([*argv, "--mode", "full", "--m", "0", "--out", str(tmp_path / "c.tsv")])
        assert rc == EXIT_VALIDATION
        assert "m must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "c.tsv").exists()


def tree_bytes(root: Path) -> dict:
    """Every file under ``root``, by path relative to it, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestOutputClaimedFirst:
    """Every file a command writes is claimed before the work: a path the file system
    cannot write fails the command before it loads, reads or trains anything."""

    @pytest.mark.parametrize(
        "command, kind",
        [
            (command, kind)
            for command in ("predict", "eval", "sweep", "train")
            for kind in ("parent-is-a-file", "too-long", "missing-directory", "existing-directory")
            # train creates out_dir with its parents, and out_dir is a directory
            if command != "train" or kind in ("parent-is-a-file", "too-long")
        ],
    )
    def test_unwritable_output_fails_before_the_work(
        self, workspace, tmp_path, capsys, monkeypatch, command, kind
    ):
        (tmp_path / "file").write_bytes(b"keep\n")
        (tmp_path / "dir").mkdir()
        bad = {
            "parent-is-a-file": tmp_path / "file" / "out",
            "too-long": tmp_path / ("x" * 5000),
            "missing-directory": tmp_path / "absent" / "out",
            "existing-directory": tmp_path / "dir",
        }[kind]
        settings = f"corpus = {workspace / 'train.txt'}\neval_corpus = {workspace / 'test.txt'}"
        (tmp_path / "run.cfg").write_text(
            with_settings(DESK_CONFIG, f"{settings}\nout_dir = {bad}"), encoding="utf-8"
        )
        manifest = workspace / "engine" / "manifest.json"
        serve = ["--manifest", str(manifest), "--corpus", str(workspace / "test.txt"), "--m", "4"]
        argv = {
            "predict": ["predict", *serve, "--out", str(bad)],
            "eval": ["eval", *serve, "--json", str(bad)],
            "sweep": ["sweep", "--config", str(tmp_path / "run.cfg"), "--buckets", "8",
                      "--chunks", "2", "--m", "2", "--out", str(bad)],
            "train": ["train", "--config", str(tmp_path / "run.cfg")],
        }[command]
        calls = []
        for module, name in [(cli, "load_ensemble"), (cli, "load_serving"),
                             (cli, "parse_corpus"), (cli, "read_block"), (train_mod, "train_all")]:
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
            )
        before = tree_bytes(tmp_path)

        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == EXIT_RUNTIME
        assert "error: [Errno " in err and str(bad) in err
        assert "Traceback" not in err and ".partial" not in err
        # train reads the corpus to check its memory before it creates out_dir
        assert calls == (["read_block"] if command == "train" else [])
        assert out == ""  # no loss line, report line or sweep row
        assert tree_bytes(tmp_path) == before  # every file kept, no .partial left behind


SRC = Path(__file__).resolve().parent.parent / "src"


# One replacement for one field: a bool, a float, a negative number, 2**64, 10**12,
# a string (long ones and NUL included), null or a list
BAD_VALUES = st.one_of(
    st.booleans(),
    st.floats(width=32),
    st.integers(max_value=-1),
    st.sampled_from([2**64, 10**12]),
    st.text(st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(["x" * 5000, "\0", "16\0"]),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=3),
)
# Every config key a command reads; out_dir names where to write
READ_KEYS = sorted(set(cli.CONFIG_KEYS) - {"out_dir"})
# Byte offset and width of each blob header field: four uint32s, then the uint64
# init_seed, which must equal the manifest engine's seed for that chunk
HEADER_FIELDS = {
    "chunk": (0, 4),
    "feature_dim": (4, 4),
    "hidden_dim": (8, 4),
    "buckets_per_chunk": (12, 4),
    "init_seed": (16, 8),
}


def json_paths(node, prefix=()):
    """The path of every key and list item under ``node``, parents before children."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield (*prefix, key)
            yield from json_paths(child, (*prefix, key))


def header_field_bytes(value, width: int) -> bytes:
    """``value`` as a writer would store it in a ``width``-byte little-endian header
    field: numbers wrap, a string is cut or NUL-padded, null leaves the field out,
    and a list writes its items one after another."""
    if isinstance(value, int):
        return (value % 2 ** (8 * width)).to_bytes(width, "little")
    if isinstance(value, float):
        return struct.pack("<f" if width == 4 else "<d", value)
    if isinstance(value, str):
        return value.encode()[:width].ljust(width, b"\0")
    return b"".join(header_field_bytes(v, width) for v in value or [])


class TestAnyBadField:
    """One field of one input replaced with a value of the wrong kind or size.

    Memory is patched to what the unedited engine needs (blob headers) or to
    nothing (manifests, configs), so no case allocates an engine's arrays.
    """

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        """``run(argv, limit)`` runs main under a memory limit of ``limit`` bytes and
        checks its exit code, its stderr, and that ``--out`` is kept."""
        out = tmp_path / "p.tsv"

        def run(argv: list[str], limit: int) -> None:
            out.write_bytes(b"keep\n")
            monkeypatch.setattr(model_mod, "_memory_limit", lambda: limit)
            rc = main(argv + (["--out", str(out)] if argv[0] == "predict" else []))
            err = capsys.readouterr().err
            assert rc in (EXIT_VALIDATION, EXIT_VERIFY), err
            assert "error: " in err and "Traceback" not in err
            assert out.read_bytes() == b"keep\n"

        return run

    @pytest.fixture
    def engine(self, workspace, tmp_path):
        """A copy of the trained engine, and of the corpora, to edit."""
        for name in ("train.txt", "test.txt"):
            shutil.copy(workspace / name, tmp_path / name)
        return shutil.copytree(workspace / "engine", tmp_path / "engine")

    def predict(self, engine: Path, doc: dict) -> list[str]:
        """``predict`` argv for ``doc`` saved as a manifest beside the engine's blobs."""
        manifest, corpus = engine / "edited.json", engine.parent / "test.txt"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        return ["predict", "--manifest", str(manifest), "--corpus", str(corpus), "--m", "4"]

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=BAD_VALUES)
    def test_manifest_field(self, engine, run, data, value):
        doc = json.loads((engine / "manifest.json").read_text(encoding="utf-8"))
        *parents, last = data.draw(st.sampled_from(list(json_paths(doc))))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        run(self.predict(engine, doc), limit=0)

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=BAD_VALUES)
    def test_blob_header_field(self, engine, run, data, value):
        manifest = load_manifest(engine / "manifest.json")
        doc = json.loads((engine / "manifest.json").read_text(encoding="utf-8"))
        chunk = data.draw(st.integers(0, len(doc["blobs"]) - 1))
        at, width = HEADER_FIELDS[data.draw(st.sampled_from(sorted(HEADER_FIELDS)))]
        raw = (engine / doc["blobs"][chunk]["path"]).read_bytes()
        edited = raw[:at] + header_field_bytes(value, width) + raw[at + width :]
        assume(edited != raw)
        (engine / "edited.bin").write_bytes(edited)
        doc["blobs"][chunk].update(path="edited.bin", sha256=hashlib.sha256(edited).hexdigest())
        run(self.predict(engine, doc), limit=_loading_bytes(manifest))

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(READ_KEYS), value=BAD_VALUES)
    def test_config_value(self, engine, tmp_path, run, key, value):
        """Only ``sweep`` reads ``eval_corpus``; ``train`` reads every other key."""
        text = value if isinstance(value, str) else json.dumps(value)
        config = with_settings(DESK_CONFIG, f"out_dir = {tmp_path / 'trained'}")
        lines = [l for l in config.splitlines() if l.partition("=")[0].strip() != key]
        (tmp_path / "run.cfg").write_text(
            "\n".join([*lines, f"{key} = {text}"]) + "\n", encoding="utf-8"
        )
        argv = ["--config", str(tmp_path / "run.cfg")]
        if key == "eval_corpus":
            run(["sweep", *argv, "--buckets", "8", "--chunks", "2", "--m", "2"], limit=0)
        else:
            run(["train", *argv], limit=0)
        assert not (tmp_path / "trained").exists()


# What a byte edit inserts: bytes that end, split or comment out a field, start
# a JSON value, or are no UTF-8, no ASCII digit, or a value out of any range
EDIT_TOKENS = (
    b"\x00", b"\xff", b"\xc3", b"\n", b"\r", b"\x0c", b" ", b"\t", b"#", b"=", b":", b",",
    b"-", b"+", b"_", b".", b"0", b"9", b"e", b'"', b"{", b"[", b"null", b"\xd9\xa2",
    b"99999999999999999999999999",
)


@st.composite
def byte_edits(draw, raw: bytes) -> bytes:
    """``raw`` after 1-4 edits, each a deletion, an inserted token, an overwritten byte or a cut."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(raw)))
        kind = draw(st.sampled_from(["delete", "insert", "overwrite", "cut"]))
        if kind == "delete":
            raw = raw[:at] + raw[at + draw(st.integers(1, 8)) :]
        elif kind == "insert":
            raw = raw[:at] + draw(st.sampled_from(EDIT_TOKENS)) + raw[at:]
        elif kind == "overwrite":
            raw = raw[:at] + draw(st.binary(min_size=1, max_size=1)) + raw[at + 1 :]
        else:
            raw = raw[:at]
    return raw


class LongRun(BaseException):
    """A training run the fuzz stops before its chunks train: no ``except Exception`` takes it."""


_TRAIN_ALL = train_mod.train_all


def bounded_train_all(block, cb, engine, cfg):
    """``train_all``, unless it would take over 1,000 steps (the desk config takes 40) or
    10**7 multiply-adds (about 120 times the desk config's): then ``LongRun``.  No config
    integer has an upper bound, so an edit can ask for a run of years, ``epochs =
    99999999999999999999999991`` say."""
    rows, k, b = block.label_offsets.size - 1, cb.config.num_chunks, cb.config.buckets_per_chunk
    steps = k * cfg.epochs * -(-rows // cfg.batch_size)
    work = k * engine.hidden_dim * (engine.feature_dim + cfg.epochs * rows * b)
    if steps > 1000 or work > 10**7:
        raise LongRun
    return _TRAIN_ALL(block, cb, engine, cfg)


class TestByteEdits:
    """1-4 byte edits to the corpus, the config or the manifest one command reads.

    Every run exits 0, 1 or 3, never with a traceback, and a failing run prints
    an ``error:`` line and leaves ``--out`` as it was.  Two outcomes are by
    design: a huge ``lr`` exits 2 with the non-finite-gradient error, and a huge
    ``epochs`` (or any edit that multiplies training's work) is a long run,
    which ``bounded_train_all`` stops before it trains.  Memory is patched to
    64 MiB, about 60 times what the desk config trains in, so no edit that grows
    an engine allocates much.
    """

    INPUTS = [
        ("predict", "corpus"),
        ("predict", "manifest"),
        ("eval", "corpus"),
        ("eval", "manifest"),
        ("train", "corpus"),
        ("train", "config"),
    ]

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command_input=st.sampled_from(INPUTS))
    def test_runs_fail_cleanly(self, workspace, tmp_path, monkeypatch, capsys, data, command_input):
        command, edited = command_input
        run = tmp_path / "run"
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(workspace / "engine", run / "engine")
        for name in ("train.txt", "test.txt"):
            shutil.copy(workspace / name, run / name)
        config = with_settings(DESK_CONFIG, "out_dir = trained")
        (run / "desk.cfg").write_text(config, encoding="utf-8")
        path = {
            "corpus": run / ("train.txt" if command == "train" else "test.txt"),
            "config": run / "desk.cfg",
            "manifest": run / "engine" / "manifest.json",
        }[edited]
        path.write_bytes(data.draw(byte_edits(path.read_bytes())))
        out = run / "out"
        out.write_bytes(b"keep\n")
        argv = {
            "predict": ["--manifest", str(run / "engine" / "manifest.json"),
                        "--corpus", str(run / "test.txt"), "--m", "4", "--out", str(out)],
            "eval": ["--manifest", str(run / "engine" / "manifest.json"),
                     "--corpus", str(run / "test.txt"), "--m", "4", "--json", str(out)],
            "train": ["--config", str(run / "desk.cfg")],
        }[command]
        monkeypatch.setattr(model_mod, "_memory_limit", lambda: 64 * 2**20)
        monkeypatch.setattr(train_mod, "train_all", bounded_train_all)

        try:
            rc = main([command, *argv])
        except LongRun:
            rc = None
        err = capsys.readouterr().err
        outcome = "a long run" if rc is None else f"exit {rc}"
        event(f"{command} with an edited {edited}: {outcome}")
        assert "Traceback" not in err, err
        if rc is None or rc == EXIT_RUNTIME and "non-finite gradient" in err:
            return  # the two outcomes by design
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY), err
        if rc != EXIT_OK:
            assert "error: " in err and out.read_bytes() == b"keep\n", err


def run_into_closed_reader(argv: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """Run the CLI with a stdout pipe whose read end is already closed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "sparsix.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=600,
        )
    finally:
        os.close(write_end)


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "command", ["train", "predict", "eval", "sweep", "verify", "verify-corrupt-blob"]
    )
    def test_command_runs_on_with_its_own_exit_code(
        self, workspace, tmp_path, command, unbuffered
    ):
        """A reader that went away (``| head -1``) fails no command and loses no file."""
        manifest = str(workspace / "engine" / "manifest.json")
        corpus = str(workspace / "test.txt")
        if command == "train":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(
                DESK_CONFIG.replace("train.txt", str(workspace / "train.txt")), encoding="utf-8"
            )
            argv, written = ["--config", str(cfg)], tmp_path / "engine" / "manifest.json"
        elif command == "predict":
            written = tmp_path / "p.tsv"
            argv = ["--manifest", manifest, "--corpus", corpus, "--out", str(written), "--m", "4"]
        elif command == "eval":
            written = tmp_path / "report.json"
            argv = ["--manifest", manifest, "--corpus", corpus, "--m", "4", "--json", str(written)]
        elif command == "sweep":
            cfg = str(workspace / "desk.cfg")
            argv, written = ["--config", cfg, "--buckets", "8", "--chunks", "2", "--m", "2"], None
        elif command == "verify":
            argv, written = ["--manifest", manifest], None
        else:
            shutil.copytree(workspace / "engine", tmp_path / "broken")
            blob = tmp_path / "broken" / "chunk_0000.bin"
            blob.write_bytes(blob.read_bytes()[:-1] + b"\0")
            argv, written = ["--manifest", str(tmp_path / "broken" / "manifest.json")], None
        expected = EXIT_VERIFY if command == "verify-corrupt-blob" else EXIT_OK

        proc = run_into_closed_reader([command.partition("-")[0], *argv], unbuffered)
        assert proc.returncode == expected, proc.stderr
        for fragment in ("Broken pipe", "BrokenPipeError", "Traceback", "error: "):
            assert fragment not in proc.stderr
        if written is not None:
            assert written.is_file()


SERVING_IMPORTS = """
import sys

import sparsix, sparsix.manifest, sparsix.infer, sparsix.cli

manifest, corpus, out = sys.argv[1:]
argv = ["predict", "--manifest", manifest, "--corpus", corpus, "--out", out, "--m", "4"]
rc = sparsix.cli.main(argv)
print(rc, sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
from sparsix import train_all
print(train_all.__module__, "scipy.sparse" in sys.modules)
"""


def write_queries(path: Path, count: int, num_labels: int) -> Path:
    _, test, num_features = make_separable_corpus(
        num_labels=count, tokens_per_label=3, docs_per_label=1, test_docs_per_label=1, seed=5
    )
    write_corpus(path, test, num_features, num_labels)
    return path


class TestServingBlocks:
    def test_empty_corpus_refused_before_the_engine_loads(self, workspace, tmp_path, capsys, monkeypatch):
        """The header's count of 0 fails the command before any blob is read or table built."""
        monkeypatch.setattr(cli, "load_serving", pytest.fail)
        corpus = tmp_path / "queries.txt"
        corpus.write_text("0 5 20\n", encoding="utf-8")
        argv = ["predict", "--manifest", str(workspace / "engine" / "manifest.json"),
                "--corpus", str(corpus), "--out", str(tmp_path / "p.tsv")]
        assert main(argv) == EXIT_VALIDATION
        assert "error: no queries in corpus" in capsys.readouterr().err
        assert not (tmp_path / "p.tsv").exists()

    def test_eval_refuses_an_empty_corpus_before_the_engine_loads(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """``eval`` gives ``evaluate``'s "empty test set" before any blob is read or table built."""
        monkeypatch.setattr(cli, "load_serving", pytest.fail)
        corpus = tmp_path / "test.txt"
        corpus.write_text("0 5 20\n", encoding="utf-8")
        argv = ["eval", "--manifest", str(workspace / "engine" / "manifest.json"),
                "--corpus", str(corpus), "--json", str(tmp_path / "report.json")]
        assert main(argv) == EXIT_VALIDATION
        assert "error: empty test set" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.skipif(_numpy_openblas() is None, reason="NumPy does not use a bundled OpenBLAS")
    def test_predict_bits_do_not_follow_the_callers_blas_threads(self, tmp_path, monkeypatch, capsys):
        """At K 2, B 1003, H 4096, ``W2 @ h`` summed across two OpenBLAS threads has other
        bits than at one.  ``main`` serves at one thread whatever the caller set, so the
        probabilities, and the files, are the same from a caller at one thread or two."""
        manifest = save_untrained(tmp_path / "engine", k=2, f=64, h=4096, b=1003, n=2000)
        corpus = write_queries(tmp_path / "queries.txt", 60, 2000)
        recorded = []
        inner = sparsix.infer.forward

        def recording(*args, **kwargs):
            z = inner(*args, **kwargs)
            recorded[-1].append(z.tobytes())
            return z

        monkeypatch.setattr(sparsix.infer, "forward", recording)
        before = openblas_threads()
        try:
            for threads in (1, 2):
                openblas_threads(threads)
                recorded.append([])
                argv = ["predict", "--manifest", str(manifest), "--corpus", str(corpus),
                        "--out", str(tmp_path / f"{threads}.tsv"), "--m", "10"]
                assert main(argv) == EXIT_OK
        finally:
            openblas_threads(before)
        capsys.readouterr()
        assert recorded[0] and recorded[0] == recorded[1]
        assert (tmp_path / "1.tsv").read_bytes() == (tmp_path / "2.tsv").read_bytes()

    @pytest.mark.skipif(_numpy_openblas() is None, reason="NumPy does not use a bundled OpenBLAS")
    def test_main_gives_the_caller_its_blas_threads_back(self, tmp_path, monkeypatch, capsys):
        """The command computes at one thread, and a caller at one or two threads has its
        own count again after."""
        manifest = save_untrained(tmp_path / "engine", k=2, f=64, h=16, b=32, n=100)
        corpus = write_queries(tmp_path / "queries.txt", 5, 100)
        during = []
        inner = sparsix.infer.forward

        def recording(*args, **kwargs):
            during.append(openblas_threads())
            return inner(*args, **kwargs)

        monkeypatch.setattr(sparsix.infer, "forward", recording)
        before = openblas_threads()
        try:
            for threads in (1, 2):
                openblas_threads(threads)
                argv = ["predict", "--manifest", str(manifest), "--corpus", str(corpus),
                        "--out", str(tmp_path / "out.tsv"), "--m", "4"]
                assert main(argv) == EXIT_OK
                assert openblas_threads() == threads
        finally:
            openblas_threads(before)
        capsys.readouterr()
        assert during and set(during) == {1}

    def test_blocks_peak_within_the_loading_estimate(self, tmp_path, monkeypatch, capsys):
        """At K 2, B 16,384 a row counts 1,081,344 bytes, so the budget binds at 3 rows
        and 7 queries take 3 blocks.  The traced peak of the whole command, loading
        included, stays within ``_loading_bytes``, which serves one block."""
        manifest = save_untrained(tmp_path / "engine", k=2, f=64, h=16, b=16_384, n=1000)
        corpus = write_queries(tmp_path / "queries.txt", 7, 1000)
        assert block_rows(load_manifest(manifest).code_config) == 3
        blocks = []
        inner = cli.predict_block
        monkeypatch.setattr(cli, "predict_block", lambda *a: blocks.append(len(a[3])) or inner(*a))
        argv = ["predict", "--manifest", str(manifest), "--corpus", str(corpus),
                "--out", str(tmp_path / "p.tsv"), "--m", "10"]
        rc, peak = traced_peak(lambda: main(argv))
        capsys.readouterr()
        assert rc == EXIT_OK and blocks == [3, 3, 1]
        assert peak <= _loading_bytes(load_manifest(manifest))


class TestServingImports:
    def test_serving_imports_no_scipy(self, workspace, tmp_path):
        """The package, the serving modules and a predict run import no SciPy module;
        ``sparsix.train_all`` still resolves, bringing in training and scipy.sparse."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        manifest = workspace / "engine" / "manifest.json"
        argv = [str(manifest), str(workspace / "test.txt"), str(tmp_path / "p.tsv")]
        proc = subprocess.run(
            [sys.executable, "-c", SERVING_IMPORTS, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == [f"{EXIT_OK} []", "sparsix.train True"]
        assert (tmp_path / "p.tsv").is_file()


class TestDocs:
    def test_commands_named_in_docs_match_parser(self):
        """The parser, the module docstring and the README list the same commands."""
        parser = cli.build_parser()
        registered = {
            name
            for action in parser._actions
            if hasattr(action, "choices") and isinstance(action.choices, dict)
            for name in action.choices
        }
        first_line = cli.__doc__.splitlines()[0]
        docstring = {name.strip(" .") for name in first_line.partition(":")[2].split(",")}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.partition("### Commands")[2].partition("\n#")[0]
        listed = set(re.findall(r"^- `([a-z-]+)`:", section, flags=re.MULTILINE))
        assert registered == docstring == listed

    def test_config_keys_in_readme_match_parser(self):
        """The README's config-key table names every key with its default."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.partition("### Config keys")[2].strip().partition("\n\n")[0]
        documented = {}
        for row in table.splitlines()[2:]:
            keys, defaults = (cell.strip() for cell in row.strip("|").split("|")[:2])
            keys = keys.split(" / ")
            defaults = defaults.split(" / ") if len(keys) > 1 else [defaults]
            assert len(defaults) == len(keys), row
            documented.update(zip(keys, defaults))
        assert documented.keys() == cli.CONFIG_KEYS.keys()
        for key, (kind, default) in CONFIG_KEYS.items():
            if default is not None:
                assert kind(documented[key].strip("`")) == default, key

    def test_readme_library_block_runs(self, tmp_path, monkeypatch, capsys):
        """The README's "Library use" example runs as written, on a small train.txt
        whose header names the 2,000 labels of the example's codebook."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.partition("## Library use")[2]
        code = section.partition("```python\n")[2].partition("```")[0]
        train, _, num_features = make_separable_corpus(
            100, docs_per_label=2, test_docs_per_label=1, noise_vocab=50
        )
        write_corpus(tmp_path / "train.txt", train, num_features, 2000)
        monkeypatch.chdir(tmp_path)
        namespace: dict = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert namespace["block"].label_offsets.size == 201 and namespace["query"].doc_id == 0
        assert namespace["pred"].labels.size == 5
        assert len(namespace["queries"]) == 200
        assert namespace["report"].as_text() in capsys.readouterr().out
