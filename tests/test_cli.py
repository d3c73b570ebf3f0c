"""Command-line interface tests: config parsing, workflows, exit codes."""
from __future__ import annotations

import shutil

import pytest

from sparsix.cli import (
    CONFIG_DEFAULTS,
    EXIT_OK,
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

    def test_build_index_from_manifest(self, workspace, capsys):
        out = workspace / "posts.idx"
        rc = main(
            [
                "build-index",
                "--manifest", str(workspace / "engine" / "manifest.json"),
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        assert out.is_file()
        assert out.read_bytes()[:4] == b"SXIX"

    def test_build_index_from_flags(self, workspace, capsys):
        out = workspace / "posts2.idx"
        rc = main(
            [
                "build-index",
                "--num-labels", "20",
                "--num-chunks", "2",
                "--buckets", "16",
                "--code-seed", "0",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        # same code config as the manifest, so the same index bytes
        assert out.read_bytes() == (workspace / "posts.idx").read_bytes()

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
