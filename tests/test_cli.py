import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import shift_dataset
from tkgc.cli import _apply_thread_cap, main
from tkgc.core import DatasetSplits, Vocabulary
from tkgc.datasets import dataset_hash, save_dataset
from tkgc.models import ModelParams, ModelSpec, save_checkpoint

ICEWS_LINES = [
    "A\tmeets\tB\t2014-01-02",
    "B\tmeets\tC\t2014-01-01",
    "A\tcalls\tC\t2014-01-02",
    "C\tcalls\tA\t2014-01-03",
    "B\tcalls\tA\t2014-01-01",
    "C\tmeets\tB\t2014-01-03",
]

YAGO_LINES = [
    '<A>\t<playsFor>\t<B>\t<occursSince>\t"2001-##-##"',
    '<A>\t<playsFor>\t<B>\t<occursUntil>\t"2003-##-##"',
    "<A>\t<isMarriedTo>\t<C>",
    '<C>\t<playsFor>\t<B>\t<occursSince>\t"2002-##-##"',
]


@pytest.fixture
def icews_dir(tmp_path):
    root = tmp_path / "icews"
    root.mkdir()
    (root / "train.txt").write_text("\n".join(ICEWS_LINES[:4]) + "\n")
    (root / "valid.txt").write_text(ICEWS_LINES[4] + "\n")
    (root / "test.txt").write_text(ICEWS_LINES[5] + "\n")
    return root


@pytest.fixture
def toy_dataset(tmp_path):
    path = tmp_path / "toy.tkg"
    save_dataset(shift_dataset(), path)
    return path


class TestIngest:
    def test_writes_container_and_stats(self, icews_dir, tmp_path, capsys):
        out = tmp_path / "icews.tkg"
        code = main(["ingest", str(icews_dir), "--format", "icews",
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "entities = 3" in stdout
        assert "relations = 2" in stdout
        assert "timestamps = 3" in stdout
        assert "facts = 6" in stdout
        assert out.exists()

    def test_reingest_is_byte_identical(self, icews_dir, tmp_path):
        first = tmp_path / "a.tkg"
        second = tmp_path / "b.tkg"
        assert main(["ingest", str(icews_dir), "--format", "icews",
                     "--out", str(first)]) == 0
        assert main(["ingest", str(icews_dir), "--format", "icews",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_yago_relation_grouping(self, tmp_path, capsys):
        root = tmp_path / "yago"
        root.mkdir()
        (root / "train.txt").write_text("\n".join(YAGO_LINES) + "\n")
        (root / "valid.txt").write_text(YAGO_LINES[0] + "\n")
        (root / "test.txt").write_text(YAGO_LINES[2] + "\n")
        out = tmp_path / "yago.tkg"
        code = main(["ingest", str(root), "--format", "yago15k",
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "relations = 3" in stdout  # playsFor@{Since,Until}, isMarriedTo
        assert "timestamps = 4" in stdout  # no-time slot + three years

    def test_parse_error_names_file_and_line(self, tmp_path, capsys):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "train.txt").write_text("A\tmeets\tB\t2014-01-01\nA\tr\tB\n")
        (root / "valid.txt").write_text(ICEWS_LINES[0] + "\n")
        (root / "test.txt").write_text(ICEWS_LINES[1] + "\n")
        code = main(["ingest", str(root), "--format", "icews",
                     "--out", str(tmp_path / "x.tkg")])
        assert code == 1
        err = capsys.readouterr().err
        assert "train.txt" in err
        assert "line 2" in err

    def test_missing_split_file(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        code = main(["ingest", str(root), "--format", "icews",
                     "--out", str(tmp_path / "x.tkg")])
        assert code == 2
        assert "train" in capsys.readouterr().err


class TestTrainCommand:
    def test_smoke_run_writes_artifacts(self, toy_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "train", "--dataset", str(toy_dataset), "--out", str(out),
            "--rank", "5", "--epochs", "2", "--batch-size", "512",
            "--eval-every", "1", "--lambda1", "0.001", "--lr", "0.05",
        ])
        assert code == 0
        assert (out / "model.ckpt").exists()
        assert (out / "model.ckpt.manifest").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "history.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "rank = 5" in manifest
        assert "epoch_2_train_loss = " in manifest
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,valid_mrr"
        assert len(history) == 3

    def test_filter_index_built_once(self, toy_dataset, tmp_path,
                                     monkeypatch):
        import tkgc.datasets
        import tkgc.training

        calls = []
        original = tkgc.datasets.build_filter_index

        def counting(splits):
            calls.append(1)
            return original(splits)

        monkeypatch.setattr(tkgc.datasets, "build_filter_index", counting)
        monkeypatch.setattr(tkgc.training, "build_filter_index", counting)
        code = main([
            "train", "--dataset", str(toy_dataset), "--out",
            str(tmp_path / "run"), "--rank", "4", "--epochs", "2",
            "--batch-size", "512", "--eval-every", "1",
        ])
        assert code == 0
        assert len(calls) == 1

    def test_published_best_config_flags_accepted(self, toy_dataset, tmp_path):
        out = tmp_path / "best"
        code = main([
            "train", "--dataset", str(toy_dataset), "--out", str(out),
            "--model", "tntcomplex", "--reg", "N", "--p", "4",
            "--lambda1", "0.001", "--lambda2", "0.01", "--rank", "2000",
            "--epochs", "1", "--batch-size", "1000",
        ])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "reg = N4" in manifest
        assert "lambda1 = 0.001" in manifest
        assert "lambda2 = 0.01" in manifest
        assert "rank = 2000" in manifest

    def test_invalid_exponent_fails_before_training(self, toy_dataset,
                                                    tmp_path, capsys):
        out = tmp_path / "bad"
        code = main([
            "train", "--dataset", str(toy_dataset), "--out", str(out),
            "--reg", "N", "--p", "0", "--epochs", "1",
        ])
        assert code == 2
        assert not (out / "model.ckpt").exists()
        assert "p" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, toy_dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# toy run\nrank = 4\nepochs = 1\nbatch_size = 512\n"
            "lambda1 = 0.001\n"
        )
        out = tmp_path / "cfgrun"
        code = main([
            "train", "--dataset", str(toy_dataset), "--out", str(out),
            "--config", str(cfg), "--epochs", "2",
        ])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "rank = 4" in manifest
        assert "epochs = 2" in manifest  # flag wins over file

    def test_set_override(self, toy_dataset, tmp_path):
        out = tmp_path / "setrun"
        code = main([
            "train", "--dataset", str(toy_dataset), "--out", str(out),
            "--set", "rank=3", "--set", "epochs=1",
            "--set", "batch_size=512",
        ])
        assert code == 0
        assert "rank = 3" in (out / "manifest.txt").read_text()

    def test_yago_pipeline_with_no_time_slot(self, tmp_path):
        # Undated facts ride the reserved slot all the way through
        # ingest -> train -> eval.
        root = tmp_path / "yago"
        root.mkdir()
        (root / "train.txt").write_text("\n".join(YAGO_LINES) + "\n")
        (root / "valid.txt").write_text(YAGO_LINES[0] + "\n")
        (root / "test.txt").write_text(YAGO_LINES[2] + "\n")
        dataset = tmp_path / "yago.tkg"
        assert main(["ingest", str(root), "--format", "yago15k",
                     "--out", str(dataset)]) == 0
        out = tmp_path / "yrun"
        assert main([
            "train", "--dataset", str(dataset), "--out", str(out),
            "--rank", "4", "--epochs", "2", "--batch-size", "16",
            "--reg", "N3", "--lambda2", "0.1", "--lambda1", "0.001",
        ]) == 0
        report = tmp_path / "y.json"
        assert main([
            "eval", "--checkpoint", str(out / "model.ckpt"),
            "--dataset", str(dataset), "--out", str(report),
        ]) == 0


class TestEvalCommand:
    def test_eval_after_train_matches_manifest(self, toy_dataset, tmp_path,
                                               capsys):
        out = tmp_path / "run"
        assert main([
            "train", "--dataset", str(toy_dataset), "--out", str(out),
            "--rank", "6", "--epochs", "3", "--batch-size", "512",
            "--lambda1", "0.001", "--lr", "0.05",
        ]) == 0
        manifest = {
            line.split(" = ")[0]: line.split(" = ")[1]
            for line in (out / "manifest.txt").read_text().splitlines()
            if " = " in line
        }
        report = tmp_path / "metrics.json"
        code = main([
            "eval", "--checkpoint", str(out / "model.ckpt"),
            "--dataset", str(toy_dataset), "--out", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["mrr"] == pytest.approx(
            float(manifest["test_mrr"]), rel=1e-10
        )
        assert payload["tie_policy"] == "pessimistic"
        assert "right" in payload and "left" in payload
        assert payload["checkpoint_hash"]

    def test_dataset_hash_mismatch_rejected(self, toy_dataset, tmp_path,
                                            capsys):
        out = tmp_path / "run"
        assert main([
            "train", "--dataset", str(toy_dataset), "--out", str(out),
            "--rank", "4", "--epochs", "1", "--batch-size", "512",
        ]) == 0
        other = tmp_path / "other.tkg"
        different = shift_dataset(n_entities=10, n_relations=2, n_timestamps=4)
        save_dataset(different, other)
        code = main([
            "eval", "--checkpoint", str(out / "model.ckpt"),
            "--dataset", str(other), "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_perfect_memorizer_scores_mrr_one(self, tmp_path, capsys):
        n = 6
        facts = np.stack([
            np.arange(n), np.zeros(n, dtype=int), np.arange(n),
            np.zeros(n, dtype=int),
        ], axis=1).astype(np.int32)
        vocab = Vocabulary(
            entities=[f"e{i}" for i in range(n)], relations=["same"],
            timestamps=["2020-01-01"],
        )
        splits = DatasetSplits(train=facts, valid=facts.copy(),
                               test=facts.copy(), vocabulary=vocab)
        ds_path = tmp_path / "identity.tkg"
        save_dataset(splits, ds_path)
        entity = np.zeros((n, 2 * n))
        entity[np.arange(n), np.arange(n)] = 1.0
        params = ModelParams(
            spec=ModelSpec(model="tcomplex", rank=n),
            entity=entity,
            relation=np.concatenate([np.ones((2, n)), np.zeros((2, n))], axis=1),
            timestamp=np.concatenate([np.ones((1, n)), np.zeros((1, n))], axis=1),
        )
        ckpt = tmp_path / "perfect.ckpt"
        save_checkpoint(params, ckpt, dataset_hash=dataset_hash(ds_path))
        report = tmp_path / "perfect.json"
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset",
                     str(ds_path), "--out", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["mrr"] == 1.0


class TestGridCommand:
    def test_single_cell_grid(self, toy_dataset, tmp_path):
        out = tmp_path / "grid1"
        code = main([
            "grid", "--dataset", str(toy_dataset), "--out", str(out),
            "--rank", "4", "--epochs", "1", "--batch-size", "512",
        ])
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_p_sweep_has_five_rows(self, toy_dataset, tmp_path):
        out = tmp_path / "gridp"
        code = main([
            "grid", "--dataset", str(toy_dataset), "--out", str(out),
            "--rank", "4", "--epochs", "1", "--batch-size", "512",
            "--reg", "N", "--lambda2", "0.01",
            "--set", "grid.p=1,2,3,4,5",
        ])
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_resume_skips_completed_rows(self, toy_dataset, tmp_path, capsys):
        out = tmp_path / "gridr"
        args = [
            "grid", "--dataset", str(toy_dataset), "--out", str(out),
            "--rank", "4", "--epochs", "1", "--batch-size", "512",
            "--set", "grid.lambda2=0,0.01", "--reg", "N",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "trained 2" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cached 2" in second


class TestPlotNorms:
    def test_default_families_and_values(self, tmp_path):
        out = tmp_path / "norms.csv"
        assert main(["plot-norms", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,L1,N2,N3,N4,N5"
        assert len(lines) == 402
        rows = {float(line.split(",")[0]): line.split(",")[1:]
                for line in lines[1:]}
        n5_at_04 = float(rows[0.4][4])
        assert n5_at_04 == pytest.approx(0.01024, abs=5e-7)
        assert float(rows[2.0][1]) == pytest.approx(4.0)

    @pytest.mark.parametrize("label, message", [
        ("N9", "exponent"), ("N0", "exponent"), ("L6", "exponent"),
        ("linear3", "N and L"), ("lstm", "N and L"), ("banana", "unknown"),
        ("N2x", "unknown"),
    ])
    def test_bad_family_label_rejected(self, tmp_path, capsys, label,
                                       message):
        out = tmp_path / "bad.csv"
        code = main(["plot-norms", "--out", str(out), "--families",
                     f"N2,{label}"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bare_family_takes_default_exponent(self, tmp_path):
        out = tmp_path / "bare.csv"
        assert main(["plot-norms", "--out", str(out), "--families",
                     "N,l2"]) == 0
        assert out.read_text().splitlines()[0] == "x,N3,L2"

    def test_five_samples_grid(self, tmp_path):
        out = tmp_path / "five.csv"
        assert main(["plot-norms", "--out", str(out), "--samples", "5"]) == 0
        xs = [float(line.split(",")[0])
              for line in out.read_text().splitlines()[1:]]
        assert xs == [-2.0, -1.0, 0.0, 1.0, 2.0]


class TestInspect:
    def test_inspect_dataset(self, toy_dataset, capsys):
        assert main(["inspect", str(toy_dataset)]) == 0
        stdout = capsys.readouterr().out
        assert "entities = 20" in stdout
        assert "reciprocal = False" in stdout

    def test_inspect_checkpoint(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from conftest import make_params

        params = make_params("tntcomplex", rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path, seed=7)
        assert main(["inspect", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert "model = tntcomplex" in stdout
        assert "seed = 7" in stdout
        assert "table.entity = " in stdout
        assert "float_count = " in stdout

    def test_inspect_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage!" * 4)
        assert main(["inspect", str(path)]) == 1


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestThreadCap:
    """``--threads`` is applied to the environment before numpy loads; the
    tests only inspect the environment, they start no BLAS pool."""

    @pytest.fixture
    def preset_env(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "7")

    def test_flag_overrides_environment(self, preset_env):
        _apply_thread_cap(["train", "--threads", "2", "--dataset", "x"])
        assert all(os.environ[var] == "2" for var in THREAD_VARS)

    def test_equals_form_is_honored(self, preset_env):
        _apply_thread_cap(["eval", "--threads=3"])
        assert all(os.environ[var] == "3" for var in THREAD_VARS)

    def test_without_flag_environment_kept(self, preset_env):
        _apply_thread_cap(["train", "--dataset", "x"])
        assert all(os.environ[var] == "7" for var in THREAD_VARS)

    @pytest.mark.parametrize("argv", (
        ["train", "--dataset", "x", "--out", "y", "--threads"],
        ["train", "--dataset", "x", "--out", "y", "--threads", "0"],
        ["train", "--dataset", "x", "--out", "y", "--threads=many"],
    ))
    def test_missing_or_bad_value_is_usage_error(self, preset_env, argv,
                                                  capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert all(os.environ[var] == "7" for var in THREAD_VARS)

    def test_abbreviated_flag_is_usage_error(self, preset_env, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", "x", "--out", "y", "--thread", "2"])
        assert exc.value.code == 2
        assert all(os.environ[var] == "7" for var in THREAD_VARS)

    def test_cap_is_applied_before_numpy_loads(self):
        # BLAS reads the thread caps once, when numpy loads it; so the cap
        # must run in a fresh interpreter that has imported only tkgc.cli,
        # as the console script and ``python -m tkgc.cli`` do.
        probe = (
            "import sys\n"
            "import tkgc.cli as cli\n"
            "def spy(argv):\n"
            "    print('numpy' in sys.modules)\n"
            "    raise SystemExit(0)\n"
            "cli._apply_thread_cap = spy\n"
            "cli.main(['train', '--threads', '1'])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
