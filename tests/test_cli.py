"""End-to-end command line flows against generated recordings."""

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import motortemp
from motortemp import cli, dataio, evaluation, features, training
from motortemp.checkpoint import load_checkpoint, save_checkpoint
from motortemp.dataio import synthesize
from motortemp.features import FeatureConfig, build_dataset, fit_standardization
from motortemp.models import init_params
from motortemp.training import TrainConfig

FAST_FEATURES = ["--window", "16", "--spans", "2,4"]
FAST_TRAIN = FAST_FEATURES + [
    "--hidden", "4", "--batch-size", "64", "--epochs-per-group", "1",
    "--groups", "1", "--fine-tune-profiles", "0",
]


def run(argv):
    return cli.main(argv)


def strict_json(text: str):
    """``json.loads`` refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def recording(tmp_path, profiles=2, length=80, seed=0) -> str:
    """A stand-in recording CSV written by ``motortemp synth``."""
    path = tmp_path / f"rec-{profiles}x{length}-seed{seed}.csv"
    if not path.exists():
        assert run(["synth", "--out", str(path), "--profiles", str(profiles),
                    "--length", str(length), "--seed", str(seed)]) == 0
    return str(path)


def test_import_leaves_scipy_unloaded():
    # Every command pays the package import; scipy.signal alone took ~1.2 s.
    src = os.path.dirname(os.path.dirname(motortemp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, motortemp; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


class TestSynth:
    def test_writes_deterministic_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["synth", "--out", str(a), "--profiles", "2",
                    "--length", "40", "--seed", "7"]) == 0
        assert run(["synth", "--out", str(b), "--profiles", "2",
                    "--length", "40", "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header.startswith("profile_id,")

    def test_seed_changes_content(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["synth", "--out", str(a), "--profiles", "1", "--length", "30",
             "--seed", "1"])
        run(["synth", "--out", str(b), "--profiles", "1", "--length", "30",
             "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()


class TestFeaturize:
    def test_writes_tensors_and_metadata(self, tmp_path):
        out = tmp_path / "feat"
        assert run(["featurize", "--data", recording(tmp_path, 2, 40),
                    "--out", str(out)] + FAST_FEATURES) == 0
        inputs = np.load(out / "inputs.npy")
        targets = np.load(out / "targets.npy")
        # 13 base quantities, raw plus two smoothing spans
        assert inputs.shape[1:] == (16, 39)
        assert targets.shape == (inputs.shape[0], 1, 4)
        prov = (out / "provenance.csv").read_text().splitlines()
        assert prov[0] == "profile_id,end_index"
        assert len(prov) == inputs.shape[0] + 1
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["window"] == 16 and cfg["spans"] == [2, 4]
        stats = json.loads((out / "stats.json").read_text())
        assert len(stats["channel_mean"]) == 39

    def test_refuses_output_that_cannot_fit(self, tmp_path, monkeypatch, capsys):
        data = recording(tmp_path, 2, 40)
        argv = ["featurize", "--data", data, *FAST_FEATURES, "--out"]
        sized = tmp_path / "sized"
        assert run(argv + [str(sized)]) == 0
        need = sum((sized / f).stat().st_size
                   for f in ("inputs.npy", "targets.npy"))
        windows = len((sized / "provenance.csv").read_text().splitlines()) - 1
        capsys.readouterr()

        free = need - 1
        monkeypatch.setattr(shutil, "disk_usage",
                            lambda path: types.SimpleNamespace(free=free))
        out = tmp_path / "full"
        assert run(argv + [str(out)]) == 1
        err = capsys.readouterr().err
        for part in (f"{windows} windows", f"{need} bytes",
                     f"only {need - 1} bytes are free", "--stride"):
            assert part in err, err
        assert not list(out.glob("*.npy"))
        # Exactly enough room is enough, and so is a rerun over its own
        # files when the disk is otherwise full.
        free = need
        assert run(argv + [str(out)]) == 0
        free = 0
        assert run(argv + [str(out)]) == 0

    def test_flag_beats_config_file_beats_default(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"window": 24, "spans": [2, 4],
                                        "batch_size": 32, "learning_rate": 1}))
        out1 = tmp_path / "f1"
        run(["featurize", "--data", recording(tmp_path, 1, 40),
             "--config", str(cfg_path), "--out", str(out1)])
        assert json.loads((out1 / "config.json").read_text())["window"] == 24
        out2 = tmp_path / "f2"
        run(["featurize", "--data", recording(tmp_path, 1, 40),
             "--config", str(cfg_path), "--window", "20", "--out", str(out2)])
        assert json.loads((out2 / "config.json").read_text())["window"] == 20

        def training_block(name, *flags):
            out = tmp_path / name
            assert run(["train", "--out", str(out), "--hidden", "2",
                        "--epochs-per-group", "1", "--groups", "1",
                        "--fine-tune-profiles", "0",
                        "--data", recording(tmp_path, 1, 40), *flags]) == 0
            return json.loads((out / "config.json").read_text())["training"]

        t = training_block("t0", *FAST_FEATURES)
        assert (t["batch_size"], t["learning_rate"]) == (256, 5e-4)
        t = training_block("t1", "--config", str(cfg_path))
        assert (t["batch_size"], t["learning_rate"]) == (32, 1.0)
        assert isinstance(t["learning_rate"], float)
        t = training_block("t2", "--config", str(cfg_path), "--batch-size", "16",
                           "--learning-rate", "0.01")
        assert (t["batch_size"], t["learning_rate"]) == (16, 0.01)

    def test_matches_build_dataset_gather(self, tmp_path):
        out = tmp_path / "feat"
        assert run(["featurize", "--data", recording(tmp_path, 3, 40, seed=4),
                    "--stride", "3", "--out", str(out)] + FAST_FEATURES) == 0
        frames = synthesize(seed=4, profiles=3, length=40)
        config = FeatureConfig(window=16, stride=3, spans=(2, 4))
        stats = fit_standardization(frames, config)
        dataset = build_dataset(frames, config, stats=stats)
        inputs, targets = dataset.gather(np.arange(dataset.n_windows))
        np.testing.assert_array_equal(np.load(out / "inputs.npy"), inputs)
        np.testing.assert_array_equal(np.load(out / "targets.npy"), targets[:, None])
        rows = (out / "provenance.csv").read_text().splitlines()[1:]
        pids, ends = dataset.provenance()
        assert rows == [f"{pid},{end}" for pid, end in zip(pids, ends, strict=True)]

    def test_tensors_are_the_bytes_np_save_writes(self, tmp_path):
        # 600 windows: two full batches of 256 and a part batch
        out = tmp_path / "feat"
        assert run(["featurize", "--data", recording(tmp_path, 2, 315),
                    "--out", str(out)] + FAST_FEATURES) == 0
        inputs = np.load(out / "inputs.npy")
        assert inputs.shape == (600, 16, 39)
        for name, array in (("inputs", inputs),
                            ("targets", np.load(out / "targets.npy"))):
            buf = io.BytesIO()
            np.save(buf, array)
            assert (out / f"{name}.npy").read_bytes() == buf.getvalue()

    def test_writing_windows_copies_no_batch(self, tmp_path):
        # 762 windows in two profiles of 381: no batch of 256 windows, nor
        # the one that would cross from one profile into the next, is
        # copied on its way to the file.
        frames = synthesize(seed=1, profiles=2, length=400)
        config = FeatureConfig(window=20, spans=(4,))
        dataset = build_dataset(frames, config, fit_standardization(frames, config))
        batch_bytes = 256 * 20 * dataset.channels.shape[1] * 8
        paths = (tmp_path / "inputs.npy", tmp_path / "targets.npy")
        cli._save_windows(dataset, *paths)  # imports numpy's .npy writer
        tracemalloc.start()
        try:
            cli._save_windows(dataset, *paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.n_windows == 762
        assert peak < batch_bytes / 4, f"peak {peak} bytes, one batch {batch_bytes}"
        inputs, targets = dataset.gather(np.arange(dataset.n_windows))
        np.testing.assert_array_equal(np.load(paths[0]), inputs)
        np.testing.assert_array_equal(np.load(paths[1]), targets[:, None])

    def test_profiles_shorter_than_window_exit_1(self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="shorter than window"):
            code = run(["featurize", "--data", recording(tmp_path, 2, 100),
                        "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert "window of 180 samples" in err
        assert "1: 100, 2: 100" in err

    @pytest.mark.parametrize("flag", ["--window", "--stride"])
    def test_sample_count_beyond_int64_exits_1_naming_it(self, tmp_path, capsys,
                                                          flag):
        assert run(["featurize", "--data", recording(tmp_path, 1, 40),
                    flag, str(10 ** 23), "--out", str(tmp_path / "f")]) == 1
        assert (f"{flag[2:]} must be at least 1 and below 2**63, got {10 ** 23}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("field,value", [
        ("window", "16"), ("window", 16.5), ("stride", 2.0)])
    def test_non_integer_config_value_exits_1(self, tmp_path, capsys,
                                              field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"spans": [2, 4], field: value}))
        assert run(["featurize", "--data", recording(tmp_path, 1, 40),
                    "--config", str(cfg_path), "--out", str(tmp_path / "f")]) == 1
        assert f"{field} must be an integer" in capsys.readouterr().err

    def test_memory_error_exits_1_with_its_message(self, tmp_path, capsys,
                                                   monkeypatch):
        message = ("Unable to allocate 123. GiB for an array with shape "
                   "(1319349, 180, 65) and data type float64")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(features, "build_dataset", out_of_memory)
        assert run(["featurize", "--data", recording(tmp_path, 1, 40),
                    *FAST_FEATURES, "--out", str(tmp_path / "f")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestConfigFile:
    BASE = ["--window", "16", "--epochs-per-group", "1", "--groups", "1",
            "--fine-tune-profiles", "0"]

    @pytest.mark.parametrize("entry", [
        {"hidden": 2.5},
        {"standardize_targets": "false"},
        {"spans": [2.7, 4.9]},
        {"fine_tune_epochs": "2"},
        {"learning_rate": None},
        {"batch_size": "abc"},
        {"seed": 1.5},
        {"test_profiles": [2.5]},
    ], ids=lambda entry: next(iter(entry)))
    def test_wrong_kind_exits_1_naming_key_and_file(self, tmp_path, capsys,
                                                    entry):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(entry))
        (key,) = entry
        assert run(["train", "--data", recording(tmp_path, 2, 40),
                    "--config", str(cfg_path),
                    "--out", str(tmp_path / "run"), *self.BASE]) == 1
        err = capsys.readouterr().err
        assert f"{cfg_path}: {key} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_unknown_variant_exits_1_naming_key_file_and_choices(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variant": "foo"}))
        assert run(["train", "--data", recording(tmp_path), "--config",
                    str(cfg_path), "--out", str(tmp_path / "run"),
                    *self.BASE]) == 1
        err = capsys.readouterr().err
        assert (f"{cfg_path}: variant must be one of vanilla, bilstm, "
                "attention, got 'foo'") in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_too_few_training_profiles_for_groups_exits_1_before_out(
            self, tmp_path, capsys):
        assert run(["train", "--data", recording(tmp_path, 3, 40),
                    "--test-profiles", "3", "--groups", "5",
                    "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "cannot split 2 profiles into 5 non-empty groups" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_group_without_a_window_exits_1_before_out(self, tmp_path, capsys):
        assert run(["train", "--data", recording(tmp_path, 3, 60),
                    "--test-profiles", "3", "--groups", "1", "--window", "180",
                    "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: group 1 has no windows; profiles shorter than "
                       "the window 180?\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("hidden", ["0", "-1"])
    def test_hidden_below_one_exits_1_before_out(self, tmp_path, capsys,
                                                 hidden):
        assert run(["train", "--data", recording(tmp_path, 2, 40),
                    f"--hidden={hidden}", "--out", str(tmp_path / "run"),
                    *self.BASE]) == 1
        err = capsys.readouterr().err
        assert err == f"error: hidden must be at least 1, got {hidden}\n"
        assert not (tmp_path / "run").exists()

    def test_negative_seed_exits_1_naming_it_before_the_data_is_read(
            self, tmp_path, capsys):
        assert run(["train", "--data", str(tmp_path / "missing.csv"),
                    "--seed=-1", "--out", str(tmp_path / "run"), *self.BASE]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be non-negative, got -1\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("content,position", [
        (b'{"window": 16,', "line 1 column 15 (char 14)"),
        (b'{"window": \xff}', "position 11")])
    def test_invalid_json_exits_1_naming_file_and_position(
            self, tmp_path, capsys, content, position):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(content)
        assert run(["featurize", "--data", recording(tmp_path), "--config",
                    str(cfg_path), "--out", str(tmp_path / "f")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg_path}: not valid JSON" in err
        assert position in err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("value", [False, None])
    def test_retired_standardize_targets_other_than_true_exits_1(
            self, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"standardize_targets": value}))
        assert run(["featurize", "--data", recording(tmp_path), "--config",
                    str(cfg_path), "--out", str(tmp_path / "f"),
                    *FAST_FEATURES]) == 1
        err = capsys.readouterr().err
        assert f"{cfg_path}: standardize_targets must be true" in err
        assert not (tmp_path / "f").exists()

    def test_retired_standardize_targets_true_changes_nothing(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"standardize_targets": True}))
        outs = [tmp_path / "old", tmp_path / "new"]
        for out, extra in zip(outs, (["--config", str(cfg_path)], [])):
            assert run(["featurize", "--data", recording(tmp_path, 3, 40),
                        "--out", str(out), *FAST_FEATURES, *extra]) == 0
        for name in ("inputs.npy", "targets.npy", "stats.json", "config.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_checks_a_value_its_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"batch_size": "abc"}))
        assert run(["train", "--out", str(tmp_path / "run"), "--config",
                    str(cfg_path), "--data", recording(tmp_path),
                    *FAST_TRAIN]) == 1
        assert f"{cfg_path}: batch_size must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value,written", [
        (0, "null"), ("none", "null"), (None, "null"), (5, "5.0"), (0.5, "0.5")])
    def test_clip_norm_spellings(self, tmp_path, value, written):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"clip_norm": value}))
        out = tmp_path / "run"
        assert run(["train", "--out", str(out), "--config", str(cfg_path),
                    "--data", recording(tmp_path), *FAST_TRAIN]) == 0
        assert f'"clip_norm": {written},' in (out / "config.json").read_text()

    def test_comma_string_lists(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"spans": "2,4", "test_profiles": "2"}))
        out = tmp_path / "run"
        assert run(["train", "--out", str(out), "--config", str(cfg_path),
                    "--hidden", "2", "--data", recording(tmp_path, 2, 40),
                    *self.BASE]) == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["features"]["spans"] == [2, 4]
        assert cfg["test_profiles"] == [2]

    def test_no_flags_writes_library_defaults(self, tmp_path):
        # Four profiles of 181 samples give the default curriculum (four
        # groups) two windows each at the default window of 180.
        out = tmp_path / "run"
        assert run(["train", "--out", str(out), "--hidden", "2",
                    "--data", recording(tmp_path, 4, 181)]) == 0
        cfg = json.loads((out / "config.json").read_text())
        expected = dataclasses.asdict(TrainConfig())
        del expected["seed"]
        assert cfg["training"] == expected
        assert cfg["features"] == FeatureConfig().to_dict()


class TestUsageErrors:
    def test_missing_data_source_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["train", "--out", str(tmp_path / "run")])
        assert err.value.code == 2
        assert ("--data is required: a recording CSV (motortemp synth --out "
                "FILE writes a stand-in)") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_missing_data_is_reported_before_the_checkpoint_is_read(
            self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            run([command, "--checkpoint", str(tmp_path / "absent.bin"),
                 "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert "--data is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("featurize", "synth", []),
        ("train", "synth-profiles", ["2"]),
        ("train", "hid", ["4"]),
        ("featurize", "seed", ["1"]),
        ("evaluate", "seed", ["1"]),
        ("predict", "seed", ["1"]),
    ], ids=["featurize_synth", "train_synth_option", "train_abbreviation",
            "featurize_seed", "evaluate_seed", "predict_seed"])
    def test_retired_or_abbreviated_flag_exits_2_naming_it(
            self, tmp_path, capsys, command, flag, value):
        needs = {"evaluate": ["--checkpoint", "c.bin"],
                 "predict": ["--checkpoint", "c.bin"]}.get(command, [])
        with pytest.raises(SystemExit) as err:
            run([command, f"--{flag}", *value, "--data", "r.csv",
                 "--out", str(tmp_path / "out"), *needs])
        assert err.value.code == 2
        assert (f"unrecognized arguments: {' '.join([f'--{flag}', *value])}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["train", "--frobnicate"])
        assert err.value.code == 2

    def test_bad_variant_choice(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["train", "--out", str(tmp_path / "run"), "--data", "x.csv",
                 "--variant", "transformer"])
        assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2


class TestRuntimeErrors:
    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not a checkpoint at all")
        assert run(["inspect", str(bogus)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_data_file_exits_1(self, tmp_path):
        out = tmp_path / "feat"
        assert run(["featurize", "--data", str(tmp_path / "absent.csv"),
                    "--out", str(out)]) == 1

    def test_variant_mismatch_exits_1(self, tmp_path, capsys):
        path = tmp_path / "v.bin"
        save_checkpoint(init_params("vanilla", seed=0, input_dim=3, hidden=2),
                        None, path)
        data = tmp_path / "d.csv"
        run(["synth", "--out", str(data), "--profiles", "1", "--length", "40"])
        assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                    "--out", str(tmp_path / "ev"), "--variant", "bilstm"]) == 1
        assert "bilstm" in capsys.readouterr().err

    def test_checkpoint_without_pipeline_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bare.bin"
        save_checkpoint(init_params("vanilla", seed=0, input_dim=3, hidden=2),
                        None, path)
        data = tmp_path / "d.csv"
        run(["synth", "--out", str(data), "--profiles", "1", "--length", "40"])
        assert run(["predict", "--checkpoint", str(path), "--data", str(data),
                    "--out", str(tmp_path / "p.csv")]) == 1
        assert "lacks feature configuration" in capsys.readouterr().err


class TestTrainFlow:
    def train(self, tmp_path, extra=()):
        out = tmp_path / "run"
        code = run(["train", "--out", str(out), "--test-profiles", "2",
                    "--data", recording(tmp_path, seed=5), "--seed", "5",
                    *FAST_TRAIN, *extra])
        assert code == 0
        return out

    def test_artifacts_written(self, tmp_path):
        out = self.train(tmp_path)
        assert (out / "checkpoint.bin").exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["test_profiles"] == [2]
        assert cfg["training"]["epochs_per_group"] == 1
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 1
        record = json.loads(log_lines[0])
        assert set(record) == {"epoch", "group", "train_loss", "eval_loss"}
        assert record["eval_loss"] is not None

    def test_diverged_run_exits_1_naming_phase_and_epoch(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--data", recording(tmp_path, 3, 60),
                    "--test-profiles", "3", *FAST_FEATURES, "--hidden", "4",
                    "--epochs-per-group", "1", "--groups", "1",
                    "--fine-tune-profiles", "0", "--learning-rate=1e300",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: group-1 epoch 1: held-out loss is inf; the run "
                       "diverged, a lower learning rate may help\n")
        assert not out.exists()

    def test_held_out_overflow_exits_1_naming_phase_and_epoch(
            self, tmp_path, capsys):
        # One step at learning rate 1e307 leaves finite weights whose
        # held-out forward pass overflows in its matrix products.
        out = tmp_path / "run"
        assert run(["train", "--data", recording(tmp_path, 3, 60),
                    "--test-profiles", "3", *FAST_FEATURES, "--hidden", "4",
                    "--epochs-per-group", "1", "--groups", "1",
                    "--fine-tune-profiles", "0", "--learning-rate=1e307",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: group-1 epoch 1: held-out loss is ")
        assert err.endswith("the run diverged, a lower learning rate may help\n")
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["vanilla", "attention", "bilstm"])
    def test_divergence_inside_an_epoch_exits_1_naming_phase_epoch_and_batch(
            self, tmp_path, capsys, variant):
        # Twelve batches of 8 per epoch: the second step overflows.  Tier-1
        # turns RuntimeWarnings into errors, so none may escape the step.
        out = tmp_path / "nested" / "run"
        assert run(["train", "--data", recording(tmp_path, 3, 60),
                    "--test-profiles", "3", *FAST_FEATURES, "--hidden", "4",
                    "--batch-size", "8", "--epochs-per-group", "3",
                    "--groups", "1", "--fine-tune-profiles", "0",
                    "--learning-rate=1e300", "--variant", variant,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: group-1 epoch 1 batch 2 of 12: non-finite "
                       "gradient in block 'encoder.w_xi'; the run diverged, a "
                       "lower learning rate may help\n")
        assert not (tmp_path / "nested").exists()

    def test_out_is_made_only_after_training(self, tmp_path, monkeypatch):
        seen = []
        real = training.TrainRun.train

        def spy(*args, **kwargs):
            seen.append((tmp_path / "run").exists())
            return real(*args, **kwargs)

        monkeypatch.setattr(training.TrainRun, "train", spy)
        out = self.train(tmp_path)
        assert seen == [False]
        assert sorted(os.listdir(out)) == [
            "checkpoint.bin", "config.json", "train_log.jsonl"]

    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_cannot_be_made_exits_1_before_training(
            self, tmp_path, monkeypatch, capsys, below):
        # --out is made only after training, so a file in its way must be
        # refused before the run trains, not after.
        def refuse(*args, **kwargs):
            raise AssertionError("the run trained")

        monkeypatch.setattr(training.TrainRun, "train", refuse)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "run" if below else blocker
        assert run(["train", "--out", str(out), "--test-profiles", "2",
                    "--data", recording(tmp_path, seed=5), *FAST_TRAIN]) == 1
        assert str(blocker) in capsys.readouterr().err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command,out,message", [
        ("evaluate", "taken", "--out {} exists and is not a directory"),
        ("predict", "absent/p.csv", "--out {}: no directory {}/absent"),
        ("predict", "", "--out {} is a directory"),
    ], ids=["evaluate_into_a_file", "predict_into_no_directory",
            "predict_onto_a_directory"])
    def test_out_that_cannot_be_written_exits_1_before_reading(
            self, tmp_path, monkeypatch, capsys, command, out, message):
        # Found out only after every window was scored, this cost a whole
        # read and scoring pass.
        ckpt = self.train(tmp_path) / "checkpoint.bin"
        data = recording(tmp_path, seed=5)
        (tmp_path / "taken").write_text("")
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("the recording was read")

        monkeypatch.setattr(dataio, "load_csv", refuse)
        target = str(tmp_path / out)
        held_out = ["--test-profiles", "2"] if command == "evaluate" else []
        assert run([command, "--checkpoint", str(ckpt), "--data", data,
                    *held_out, "--out", target]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(target, tmp_path)}\n"
        assert (tmp_path / "taken").read_text() == ""

    def test_featurizes_each_training_profile_twice_and_held_out_once(
            self, tmp_path, monkeypatch):
        # Twice for the statistics and the training table, once for the
        # held-out windows; the held-out report reuses the run's own.
        calls = {}
        real = features.channel_matrix

        def counting(frame, config):
            calls[frame.profile_id] = calls.get(frame.profile_id, 0) + 1
            return real(frame, config)

        monkeypatch.setattr(features, "channel_matrix", counting)
        assert run(["train", "--out", str(tmp_path / "run"),
                    "--data", recording(tmp_path, 4, 60), "--test-profiles", "4",
                    *FAST_TRAIN]) == 0
        assert calls == {1: 2, 2: 2, 3: 2, 4: 1}

    def test_holding_out_every_profile_exits_1_naming_them(
            self, tmp_path, monkeypatch, capsys):
        data = recording(tmp_path)
        monkeypatch.setattr(features, "channel_matrix",
                            lambda *_: pytest.fail("a profile was featurized"))
        assert run(["train", "--out", str(tmp_path / "run"), "--data", data,
                    "--test-profiles", "1,2", *FAST_TRAIN]) == 1
        assert capsys.readouterr().err == (
            "error: every profile is held out (1, 2); none is left to train on\n")
        assert not (tmp_path / "run").exists()

    def test_evaluate_refuses_an_overflowing_error_naming_its_target(
            self, tmp_path, capsys):
        params, stats, feature_config = load_checkpoint(
            self.train(tmp_path) / "checkpoint.bin")
        params.output_b.values[0, 3] = 1e300  # pm
        path = tmp_path / "diverged.bin"
        save_checkpoint(params, stats, path, feature_config=feature_config)
        ev = tmp_path / "ev"
        assert run(["evaluate", "--checkpoint", str(path), "--test-profiles", "2",
                    "--data", recording(tmp_path, seed=5), "--out", str(ev)]) == 1
        err = capsys.readouterr().err
        assert "error: the squared error of target 'pm' overflows" in err
        assert not ev.exists()

    def test_every_json_file_is_strict_json(self, tmp_path):
        out = self.train(tmp_path)
        data = recording(tmp_path, seed=5)
        assert run(["featurize", "--data", data, "--out", str(tmp_path / "feat"),
                    *FAST_FEATURES]) == 0
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", data, "--test-profiles", "2",
                    "--out", str(tmp_path / "ev")]) == 0
        written = sorted(tmp_path.rglob("*.json")) + [out / "train_log.jsonl"]
        assert len(written) == 5  # config.json twice, stats, report, the log
        for path in written:
            for line in (path.read_text().splitlines() if path.suffix == ".jsonl"
                         else [path.read_text()]):
                strict_json(line)

    def test_evaluate_and_predict_from_checkpoint(self, tmp_path, capsys):
        out = self.train(tmp_path)
        data = recording(tmp_path, seed=5)
        ev = tmp_path / "ev"
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", data, "--test-profiles", "2",
                    "--out", str(ev)]) == 0
        report = json.loads((ev / "report.json").read_text())
        assert report["n_windows"] > 0
        assert set(report["mse"]) == {"stator_winding", "stator_tooth",
                                      "stator_yoke", "pm"}
        assert (ev / "report.txt").exists()
        assert (ev / "pm_trace.csv").exists()
        assert (ev / "pm_error.csv").exists()

        pred = tmp_path / "pred.csv"
        assert run(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", data, "--out", str(pred)]) == 0
        lines = pred.read_text().splitlines()
        assert lines[0] == ("profile_id,end_index,pred_stator_winding,"
                            "pred_stator_tooth,pred_stator_yoke,pred_pm")
        first = lines[1].split(",")
        assert first[0] == "1"
        float(first[2])  # numeric payload parses

    def test_every_csv_written_ends_its_lines_with_lf(self, tmp_path):
        out = self.train(tmp_path)
        data = recording(tmp_path, seed=5)
        assert run(["featurize", "--data", data, "--out", str(tmp_path / "feat"),
                    *FAST_FEATURES]) == 0
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", data, "--test-profiles", "2",
                    "--out", str(tmp_path / "ev")]) == 0
        assert run(["predict", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", data, "--out", str(tmp_path / "pred.csv")]) == 0
        written = sorted(tmp_path.rglob("*.csv"))
        # the recording, provenance, eight traces and the predictions
        assert len(written) == 11
        for path in written:
            text = path.read_bytes()
            assert b"\r" not in text, path
            assert text.endswith(b"\n"), path

    def test_evaluate_predicts_each_window_once(self, tmp_path, monkeypatch):
        out = self.train(tmp_path)
        data = recording(tmp_path, seed=5)
        rows = []
        real_predict = evaluation.predict

        def counting_predict(params, batch):
            rows.append(len(batch))
            return real_predict(params, batch)

        monkeypatch.setattr(evaluation, "predict", counting_predict)
        ev = tmp_path / "ev"
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", data, "--test-profiles", "1,2",
                    "--batch-size", "50", "--out", str(ev)]) == 0
        report = json.loads((ev / "report.json").read_text())
        assert report["n_windows"] == 2 * (80 - 16 + 1)
        assert sum(rows) == report["n_windows"]

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_evaluate_batch_size_zero_exits_1_naming_it(self, tmp_path, capsys,
                                                         where):
        out = self.train(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"batch_size": 0}))
        extra = (["--batch-size", "0"] if where == "flag"
                 else ["--config", str(cfg_path)])
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", recording(tmp_path, 2, 40),
                    "--test-profiles", "2", "--out", str(tmp_path / "ev"),
                    *extra]) == 1
        err = capsys.readouterr().err
        assert "batch_size must be a positive integer, got 0" in err

    def test_evaluate_needs_test_profiles_for_synth_ids(self, tmp_path, capsys):
        out = self.train(tmp_path)
        # generated ids are 1..n, so the default held-out id is absent
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                    "--data", recording(tmp_path), "--out",
                    str(tmp_path / "ev")]) == 1
        assert "no held-out profiles" in capsys.readouterr().err


class TestInspect:
    def test_reports_reference_parameter_count(self, tmp_path, capsys):
        path = tmp_path / "att.bin"
        save_checkpoint(init_params("attention", seed=0), None, path)
        assert run(["inspect", str(path)]) == 0
        text = capsys.readouterr().out
        assert "variant: attention" in text
        assert "trainable parameters: 147604" in text
        assert "Softmax" in text

    def test_bilstm_layer_table_shows_concats(self, tmp_path, capsys):
        path = tmp_path / "bi.bin"
        save_checkpoint(init_params("bilstm", seed=0, input_dim=5, hidden=3),
                        None, path)
        assert run(["inspect", str(path)]) == 0
        text = capsys.readouterr().out
        assert "Concat-1" in text and "Concat-2" in text
        assert "trainable parameters:" in text
