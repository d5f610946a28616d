import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from signet import cli, data, models, modelio, train
from signet.cli import GradeResult, band_for_grade, grade_from_probabilities
from signet.data import PreprocessConfig
from signet.tensor import Rng


class TestGrading:
    def test_band_thresholds(self):
        assert band_for_grade(70) == "Excellent"
        assert band_for_grade(99) == "Excellent"
        assert band_for_grade(69) == "Good Job"
        assert band_for_grade(50) == "Good Job"
        assert band_for_grade(49) == "Keep practicing!"
        assert band_for_grade(0) == "Keep practicing!"

    @pytest.mark.parametrize(
        "prob,grade,band",
        [
            (0.99, 99, "Excellent"),
            (0.78, 78, "Excellent"),
            (0.70, 70, "Excellent"),
            (0.6999, 69, "Good Job"),
            (0.499, 49, "Keep practicing!"),
        ],
    )
    def test_grade_truncates_probability(self, prob, grade, band):
        rest = (1.0 - prob) / 3.0
        probs = [prob, rest, rest, rest]
        result = grade_from_probabilities(probs, ["a", "b", "c", "d"])
        assert result.grade == grade
        assert result.band == band
        assert result.predicted_label == "a"

    def test_tie_breaks_to_lower_class_index(self):
        result = grade_from_probabilities([0.4, 0.4, 0.2], ["a", "b", "c"])
        assert result.predicted_label == "a"

    def test_predict_lists_tied_classes_by_lower_index(self, monkeypatch, capsys):
        probs = np.array([0.2, 0.3, 0.2, 0.3], dtype=np.float32)
        monkeypatch.setattr(cli, "_load_clip_probs", lambda model, clip: (probs, list("abcd")))
        rc = cli.main(["predict", "--model", "m.slm", "--clip", "clip", "--top", "4"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["b 30%", "d 30%", "a 20%", "c 20%"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_corpus):
    """One small trained model + model path, reused across CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "model.slm"
    rc = cli.main([
        "train", "--data", tiny_corpus, "--arch", "cnn_td", "--out", str(out),
        "--epochs", "2", "--batch-size", "4", "--seed", "11",
    ])
    assert rc == 0
    return str(out)


def _python_m_signet(*argv):
    """``python -m signet`` in a subprocess, outside pytest's warning filters."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "signet", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)


def _a_clip_dir(corpus):
    cls = sorted(os.listdir(corpus))[0]
    clip = sorted(os.listdir(os.path.join(corpus, cls)))[0]
    return os.path.join(corpus, cls, clip)


class TestCommands:
    def test_synth_counts_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a"
        rc = cli.main(["synth", "--out", str(a), "--classes", "4",
                       "--clips-per-class", "10", "--seed", "7", "--frames", "6",
                       "--size", "16x16"])
        assert rc == 0
        assert capsys.readouterr().out == "40 clips\n"
        assert sum(len(d) for d in [os.listdir(a / c) for c in os.listdir(a)]) == 40

    def test_synth_class_limit_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--out", str(tmp_path / "x"), "--classes", "9",
                      "--clips-per-class", "1"])
        assert exc.value.code == 2

    def test_synth_impossible_size_exits_1(self, tmp_path, capsys):
        # numpy refuses a 71 PiB frame at once, without touching memory.
        rc = cli.main(["synth", "--out", str(tmp_path / "x"), "--classes", "2",
                       "--clips-per-class", "1", "--size", "99999999x99999999"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_python_m_signet_runs_the_cli(self, tmp_path):
        proc = _python_m_signet("synth", "--out", str(tmp_path / "c"), "--classes", "2",
                                "--clips-per-class", "1", "--frames", "2", "--size", "8x8")
        assert proc.returncode == 0
        assert proc.stdout == "2 clips\n"
        assert proc.stderr == ""

    def test_grade_of_an_overflowing_model_prints_one_error_line(self, tmp_path):
        # Finite weights whose conv outputs overflow float32.
        spec = models.build("cnn_td", (2, 8, 8, 1), 2)
        params = models.init_model(spec, Rng(0))
        params["layer0_time_distributed/td0_conv2d/bias"].data[:] = 3e38
        model = str(tmp_path / "model.slm")
        modelio.save_model(spec, params, PreprocessConfig(8, 8, 1, 2), ["a", "b"], model)
        clip = tmp_path / "clip"
        clip.mkdir()
        frame = data.encode_pgm(np.arange(64, dtype=np.uint8).reshape(8, 8))
        for i in range(2):
            (clip / f"frame_{i:03d}.pgm").write_bytes(frame)
        proc = _python_m_signet("grade", "--model", model, "--clip", str(clip))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_train_writes_model_and_history(self, tmp_path, tiny_corpus, capsys):
        out = tmp_path / "m.slm"
        hist = tmp_path / "h.csv"
        rc = cli.main(["train", "--data", tiny_corpus, "--arch", "cnn_td",
                       "--out", str(out), "--epochs", "2", "--batch-size", "4",
                       "--seed", "11", "--history", str(hist)])
        assert rc == 0
        assert out.exists()
        lines = hist.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,val_loss,val_accuracy"
        assert 2 <= len(lines) <= 3
        assert capsys.readouterr().out.startswith("epoch ")

    def test_train_unknown_arch_exits_2(self, tiny_corpus, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", tiny_corpus, "--arch", "bogus",
                      "--out", str(tmp_path / "x.slm")])
        assert exc.value.code == 2

    def test_train_missing_dataset_exits_1(self, tmp_path, capsys):
        rc = cli.main(["train", "--data", str(tmp_path / "nope"), "--arch", "cnn_td",
                       "--out", str(tmp_path / "x.slm")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_train_config_checked_before_data_is_read(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("load_dataset called before the config was checked")

        monkeypatch.setattr(data, "load_dataset", fail)
        rc = cli.main(["train", "--data", str(tmp_path), "--arch", "cnn_td",
                       "--out", str(tmp_path / "x.slm"), "--lr", "nan"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag,dest", [
        ("--out", "missing/m.slm"),
        ("--out", "a_file/m.slm"),
        ("--out", "adir"),
        ("--history", "missing/h.csv"),
        ("--history", "adir"),
    ])
    def test_train_destinations_checked_before_data_is_read(
        self, tmp_path, monkeypatch, capsys, flag, dest
    ):
        def fail(*args, **kwargs):
            raise AssertionError("load_dataset called before the destinations were checked")

        monkeypatch.setattr(data, "load_dataset", fail)
        (tmp_path / "a_file").write_text("")
        (tmp_path / "adir").mkdir()
        paths = {"--out": str(tmp_path / "m.slm"), "--history": str(tmp_path / "h.csv")}
        paths[flag] = str(tmp_path / dest)
        rc = cli.main(["train", "--data", str(tmp_path), "--arch", "cnn_td",
                       "--out", paths["--out"], "--history", paths["--history"]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("history", ["m.slm", "./m.slm", "link.slm", "hard.slm"])
    def test_train_history_cannot_replace_the_model(
        self, tmp_path, monkeypatch, capsys, history
    ):
        def fail(*args, **kwargs):
            raise AssertionError("load_dataset called before the destinations were checked")

        monkeypatch.setattr(data, "load_dataset", fail)
        (tmp_path / "m.slm").write_bytes(b"old model")
        (tmp_path / "link.slm").symlink_to(tmp_path / "m.slm")
        os.link(tmp_path / "m.slm", tmp_path / "hard.slm")
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["train", "--data", str(tmp_path), "--arch", "cnn_td",
                       "--out", "m.slm", "--history", history])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --history {history}: is the same file as --out\n"
        assert (tmp_path / "m.slm").read_bytes() == b"old model"

    @pytest.mark.parametrize("flag,dest", [
        ("--report", "missing/r.txt"),
        ("--matrix", "adir"),
        ("--report", "m.slm"),
        ("--matrix", "m.slm"),
        ("--report", "link.slm"),
        ("--report", "hard.slm"),
        ("--matrix", "r.txt"),
    ])
    def test_evaluate_destinations_checked_before_the_model_is_read(
        self, tmp_path, monkeypatch, capsys, flag, dest
    ):
        def fail(*args, **kwargs):
            raise AssertionError("evaluate read an input before checking its outputs")

        monkeypatch.setattr(modelio, "load_model", fail)
        monkeypatch.setattr(data, "load_dataset", fail)
        (tmp_path / "adir").mkdir()
        (tmp_path / "m.slm").write_bytes(b"old model")
        (tmp_path / "link.slm").symlink_to(tmp_path / "m.slm")
        os.link(tmp_path / "m.slm", tmp_path / "hard.slm")
        (tmp_path / "r.txt").write_text("old report")
        paths = {"--report": str(tmp_path / "r.txt"), "--matrix": str(tmp_path / "c.csv")}
        paths[flag] = str(tmp_path / dest)
        rc = cli.main(["evaluate", "--model", str(tmp_path / "m.slm"), "--data", str(tmp_path),
                       "--report", paths["--report"], "--matrix", paths["--matrix"]])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert (tmp_path / "m.slm").read_bytes() == b"old model"
        assert (tmp_path / "r.txt").read_text() == "old report"
        assert not (tmp_path / "c.csv").exists()

    def test_evaluate_report_cannot_replace_its_model(self, trained, tiny_corpus, tmp_path,
                                                     capsys):
        model = tmp_path / "m.slm"
        model.write_bytes(Path(trained).read_bytes())
        rc = cli.main(["evaluate", "--model", str(model), "--data", tiny_corpus,
                       "--seed", "11", "--report", str(model)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --report {model}: is the same file as --model\n"
        assert model.read_bytes() == Path(trained).read_bytes()
        rc = cli.main(["grade", "--model", str(model), "--clip", _a_clip_dir(tiny_corpus)])
        assert rc == 0

    def test_evaluate_writes_report_and_matrix(self, trained, tiny_corpus, tmp_path, capsys):
        report = tmp_path / "report.txt"
        matrix = tmp_path / "matrix.csv"
        rc = cli.main(["evaluate", "--model", trained, "--data", tiny_corpus,
                       "--report", str(report), "--matrix", str(matrix),
                       "--seed", "11"])
        assert rc == 0
        text = report.read_text()
        lines = text.splitlines()
        assert lines[0].split() == ["Sign", "Precision", "Recall", "F1-Score"]
        assert len(lines) == 1 + 2 + 2
        assert capsys.readouterr().out == text
        assert matrix.read_text().count("\n") == 3

    def test_evaluate_class_mismatch_exits_1(self, trained, tmp_path, capsys):
        other = tmp_path / "other_corpus"
        data.generate_synthetic(str(other), 3, 2, frames=6, size=(16, 16), seed=0)
        rc = cli.main(["evaluate", "--model", trained, "--data", str(other)])
        assert rc == 1
        assert "classes" in capsys.readouterr().err

    def test_predict_top_k(self, trained, tiny_corpus, capsys):
        clip = _a_clip_dir(tiny_corpus)
        rc = cli.main(["predict", "--model", trained, "--clip", clip])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # default top 2
        for line in lines:
            label, pct = line.rsplit(" ", 1)
            assert pct.endswith("%") and 0 <= int(pct[:-1]) <= 100

        rc = cli.main(["predict", "--model", trained, "--clip", clip, "--top", "1"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_predict_top_below_one_is_usage_error(self, trained, tiny_corpus, top):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--model", trained, "--clip", _a_clip_dir(tiny_corpus),
                      "--top", top])
        assert exc.value.code == 2

    def test_predict_ranking_matches_sort_and_agrees_with_grade(
        self, trained, tiny_corpus, capsys
    ):
        clip = _a_clip_dir(tiny_corpus)
        spec, params, cfg, names = modelio.load_model(trained)
        probs = models.predict_probs(spec, params, data.load_clip(clip, cfg))
        order = sorted(range(len(names)), key=lambda i: (-float(probs[i]), i))

        cli.main(["predict", "--model", trained, "--clip", clip, "--top", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(names[order[0]])

        cli.main(["grade", "--model", trained, "--clip", clip])
        grade_lines = capsys.readouterr().out.splitlines()
        assert grade_lines[0] == names[order[0]]

    def test_grade_output_is_exactly_four_lines(self, trained, tiny_corpus, capsys):
        rc = cli.main(["grade", "--model", trained, "--clip", _a_clip_dir(tiny_corpus)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[1] == "Sign Grade X:"
        assert lines[2] == str(int(lines[2]))
        assert lines[3] in ("Excellent", "Good Job", "Keep practicing!")

    def test_grade_missing_clip_exits_1(self, trained, tmp_path, capsys):
        rc = cli.main(["grade", "--model", trained, "--clip", str(tmp_path / "none")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["grade", "predict", "evaluate"])
    def test_version_1_model_prints_one_error_line(self, trained, tiny_corpus, tmp_path, capsys,
                                                   command):
        # The format before sha256, with a well-formed checksum of its own.
        header, payload = oracles.split_model_file(Path(trained).read_bytes())
        del header["payload_sha256"]
        header.update(format_version=1, payload_checksum_fnv1a64="0123456789abcdef")
        old = tmp_path / "old.slm"
        old.write_bytes(oracles.model_file(header, payload))
        source = (["--data", tiny_corpus] if command == "evaluate"
                  else ["--clip", _a_clip_dir(tiny_corpus)])
        rc = cli.main([command, "--model", str(old), *source])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "format version 1;" in err, err

    def test_predict_bad_model_file_exits_1(self, tmp_path, tiny_corpus, capsys):
        bad = tmp_path / "bad.slm"
        bad.write_bytes(b"XXXX not a model")
        rc = cli.main(["predict", "--model", str(bad), "--clip", _a_clip_dir(tiny_corpus)])
        assert rc == 1
        assert "not a model file" in capsys.readouterr().err


_BIG = "123456789012345678901234567890"
_INTS = ["1", "2", "0", "-1", _BIG, "-" + _BIG]
_FLOATS = ["0.5", "1e3", "0", "-1", "nan", "inf", "-inf"]
# Paths name what the argv_files fixture writes into each example's directory.
# Hypothesis favours the first entry of a list, so it is a well-formed value.
_OUTPUTS = ["out", "adir", "empty.slm", "missing/out"]
_FLAG_VALUES = {
    "--model": ["model.slm", "corrupt.slm", "empty.slm", "adir", "missing"],
    "--clip": ["clip", "adir", "empty.slm", "missing"],
    "--data": ["clip", "adir", "empty.slm", "missing"],
    "--out": _OUTPUTS, "--history": _OUTPUTS, "--report": _OUTPUTS, "--matrix": _OUTPUTS,
    "--classes": _INTS + ["9"], "--clips-per-class": _INTS, "--seed": _INTS,
    "--frames": _INTS, "--epochs": _INTS, "--batch-size": _INTS, "--patience": _INTS,
    "--top": _INTS, "--lr": _FLOATS, "--val-split": _FLOATS,
    "--size": ["2x2", "1x1", "8x8", "0x3", "3x", "x", "", _BIG],
    "--arch": [*models.ARCHITECTURES, "bogus"],
}
_COMMAND_FLAGS = {
    "synth": ["--out", "--classes", "--clips-per-class", "--seed", "--frames", "--size"],
    "train": ["--data", "--arch", "--out", "--epochs", "--batch-size", "--lr", "--patience",
              "--val-split", "--seed", "--history"],
    "evaluate": ["--model", "--data", "--report", "--matrix", "--seed"],
    "predict": ["--model", "--clip", "--top"],
    "grade": ["--model", "--clip"],
}
_TOKENS = sorted({*_COMMAND_FLAGS, *_FLAG_VALUES, "-h", "--help", "--",
                  *(v for values in _FLAG_VALUES.values() for v in values)})


@st.composite
def _argv(draw):
    """Any tokens at all, or one command with most of its flags and stray tokens."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=8))
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    # Hypothesis favours small draws, so 0 stands for the well-formed choice.
    for flag in _COMMAND_FLAGS[command]:
        if draw(st.integers(0, 7)) < 7:
            values = _TOKENS if draw(st.integers(0, 15)) == 15 else _FLAG_VALUES[flag]
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.integers(0, 3)) == 3:
        argv += draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=2))
    return argv


def _starts_long_work(argv):
    # synth writes every clip and frame it is asked for; "--clip" abbreviates
    # "--clips-per-class" there.
    counts = ("--clips-per-class", "--clip", "--frames")
    return any(a in counts and b == _BIG for a, b in zip(argv, argv[1:]))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """name -> bytes (a file) or None (an empty directory) for the argv fuzz."""
    root = tmp_path_factory.mktemp("argv")
    spec = models.build("cnn_td", (2, 8, 8, 1), 2)
    modelio.save_model(spec, models.init_model(spec, Rng(0)), PreprocessConfig(8, 8, 1, 2),
                       ["a", "b"], str(root / "model.slm"))
    frame = data.encode_pgm(np.arange(64, dtype=np.uint8).reshape(8, 8))
    model = (root / "model.slm").read_bytes()
    return {
        "model.slm": model,
        "corrupt.slm": model[:40] + bytes(8) + model[48:],
        "empty.slm": b"",
        "adir": None,
        "clip/frame_000.pgm": frame,
        "clip/frame_001.pgm": frame,
    }


class TestArgvFuzz:
    """cli.main returns 0, 1 or 2, or argparse exits with 0 or 2, and nothing else escapes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=_argv())
    def test_main_exits_0_1_or_2(self, argv_files, argv):
        assume(not _starts_long_work(argv))
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            for name, raw in argv_files.items():
                path = Path(tmp, name)
                if raw is None:
                    path.mkdir()
                else:
                    path.parent.mkdir(exist_ok=True)
                    path.write_bytes(raw)
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2), argv
            else:
                assert rc in (0, 1, 2), argv
            finally:
                os.chdir(cwd)
