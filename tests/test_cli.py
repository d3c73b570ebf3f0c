"""Command-line interface tests: config parsing, workflows, exit codes."""
from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from sparsix import cli
from sparsix.cli import (
    CONFIG_DEFAULTS,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    _parse_ks,
    main,
    parse_config,
)
from sparsix.corpus import make_separable_corpus, write_corpus

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


class TestParseConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "t.cfg"
        p.write_text(text, encoding="utf-8")
        return p

    def test_defaults_filled(self, tmp_path):
        (tmp_path / "c.txt").write_text("0 1 1\n")
        p = self.write(tmp_path, "corpus = c.txt\n")
        values = parse_config(p)
        for key, default in CONFIG_DEFAULTS.items():
            if key != "out_dir":
                assert values[key] == default
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

    def test_parse_ks(self):
        assert _parse_ks("1,5,10") == (1, 5, 10)
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
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_VERIFY

        rc = main(["verify", "--manifest", str(broken / "manifest.json")])
        out = capsys.readouterr().out
        assert rc == EXIT_VERIFY
        assert "FAIL manifest-checksums" in out

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

    def train_with(self, workspace, tmp_path, lr="5e-3", corpus=None, extra=""):
        text = DESK_CONFIG.replace("lr = 5e-3", f"lr = {lr}")
        text = text.replace("corpus = train.txt", f"corpus = {corpus or workspace / 'train.txt'}")
        text += extra
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

    @pytest.mark.parametrize(
        "setting", ["buckets_per_chunk = 4294967301", "feature_dim = 4294967301"]
    )
    def test_oversized_config_is_validation_error(self, workspace, tmp_path, capsys, setting):
        rc = self.train_with(workspace, tmp_path, extra=setting + "\n")
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "error: " in err and "Traceback" not in err
        assert not (tmp_path / "engine" / "manifest.json").exists()


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
        for key, default in CONFIG_DEFAULTS.items():
            assert cli.CONFIG_KEYS[key](documented[key].strip("`")) == default, key
