"""Command-line surface: synth, train, evaluate, predict, grade.

Exit codes: 0 success, 1 data/model error, 2 usage error. Every command is
deterministic given its flags and seed, so reruns reproduce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import data, metrics, models, modelio, train
from .tensor import NonFiniteError, ShapeError, TapeError

__all__ = ["GradeResult", "grade_from_probabilities", "band_for_grade", "main"]

BAND_EXCELLENT = "Excellent"
BAND_GOOD_JOB = "Good Job"
BAND_KEEP_PRACTICING = "Keep practicing!"

_PACKAGE_ERRORS = (
    data.DatasetError,
    modelio.ModelFormatError,
    train.TrainingError,
    ShapeError,
    NonFiniteError,
    TapeError,
    OSError,
    MemoryError,
)


@dataclass
class GradeResult:
    """A graded sign attempt: top label, integer grade, feedback band."""

    predicted_label: str
    grade: int
    band: str


def band_for_grade(grade: int) -> str:
    if grade >= 70:
        return BAND_EXCELLENT
    if grade >= 50:
        return BAND_GOOD_JOB
    return BAND_KEEP_PRACTICING


def grade_from_probabilities(probs, class_names: list[str]) -> GradeResult:
    """Grade = trunc(max probability * 100); bands at >= 70 and >= 50.

    Tied top probabilities go to the lowest class index, as ``np.argmax`` gives.
    """
    p = np.asarray(probs, dtype=np.float64)
    top = int(np.argmax(p))
    grade = int(p[top] * 100.0)
    return GradeResult(class_names[top], grade, band_for_grade(grade))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"size must look like 64x64, got {text!r}")
    if h < 1 or w < 1:
        raise argparse.ArgumentTypeError(f"size extents must be positive, got {text!r}")
    return h, w


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def cmd_synth(args) -> int:
    count = data.generate_synthetic(
        args.out,
        num_classes=args.classes,
        clips_per_class=args.clips_per_class,
        frames=args.frames,
        size=args.size,
        seed=args.seed,
    )
    print(f"{count} clips")
    return 0


def _file_key(path: str):
    """What names one file: ``(st_dev, st_ino)`` once it exists, which also
    sees hard links, as ``os.path.samefile`` does; else its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_destinations(outputs: dict, model: str | None = None) -> None:
    """Raise OSError unless every output can be created or replaced as a file.

    ``outputs`` maps each output flag to its path; a None or empty path is
    not checked. No output may be the same file as ``model`` or as another
    output, whether through a symlink or a hard link.
    """
    taken = {_file_key(model): "--model"} if model else {}
    for flag, path in outputs.items():
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise OSError(f"{flag} {path}: {parent} is not an existing directory")
        if not os.access(parent, os.W_OK | os.X_OK):
            raise OSError(f"{flag} {path}: directory {parent} is not writable")
        if os.path.isdir(path):
            raise OSError(f"{flag} {path}: is a directory")
        key = _file_key(path)
        if key in taken:
            raise OSError(f"{flag} {path}: is the same file as {taken[key]}")
        taken[key] = flag


def cmd_train(args) -> int:
    cfg = train.TrainingConfig(
        max_epochs=args.epochs,
        min_epochs=min(train.TrainingConfig.min_epochs, args.epochs),
        batch_size=args.batch_size,
        learning_rate=args.lr,
        patience=args.patience,
        validation_split=args.val_split,
        seed=args.seed,
    )
    _check_destinations({"--out": args.out, "--history": args.history})
    size_cfg = data.PreprocessConfig()
    manifest = data.load_dataset(args.data, size_cfg, seed=args.seed)
    spec = models.build(args.arch, size_cfg.clip_shape, len(manifest.class_names))
    params, history = train.fit(spec, manifest, cfg)
    modelio.save_model(spec, params, size_cfg, manifest.class_names, args.out)
    if args.history:
        with open(args.history, "w", newline="") as fh:
            fh.write(history.to_csv())
    last = history.records[-1]
    print(
        f"epoch {last.epoch}: train_loss={last.train_loss:.6g} "
        f"train_accuracy={last.train_accuracy:.6g} val_loss={last.val_loss:.6g} "
        f"val_accuracy={last.val_accuracy:.6g}"
    )
    return 0


def cmd_evaluate(args) -> int:
    _check_destinations({"--report": args.report, "--matrix": args.matrix}, args.model)
    spec, params, preprocess, class_names = modelio.load_model(args.model)
    manifest = data.load_dataset(args.data, preprocess, seed=args.seed)
    if manifest.class_names != class_names:
        raise data.DatasetError(
            f"model classes {class_names} do not match dataset classes "
            f"{manifest.class_names}"
        )
    truth, pred = [], []
    for sample in manifest.eval:
        probs = models.predict_probs(spec, params, sample.frames)
        truth.append(sample.label_index)
        pred.append(int(np.argmax(probs)))
    cm = metrics.confusion_matrix(truth, pred, class_names)
    report_text = metrics.render_report(metrics.classification_report(cm))
    print(report_text, end="")
    if args.report:
        with open(args.report, "w", newline="") as fh:
            fh.write(report_text)
    if args.matrix:
        with open(args.matrix, "w", newline="") as fh:
            fh.write(metrics.render_matrix(cm))
    return 0


def _load_clip_probs(model_path: str, clip_dir: str):
    spec, params, preprocess, class_names = modelio.load_model(model_path)
    frames = data.load_clip(clip_dir, preprocess)
    return models.predict_probs(spec, params, frames), class_names


def cmd_predict(args) -> int:
    probs, class_names = _load_clip_probs(args.model, args.clip)
    for index in np.argsort(-probs, kind="stable")[: args.top]:
        print(f"{class_names[index]} {int(float(probs[index]) * 100.0)}%")
    return 0


def cmd_grade(args) -> int:
    probs, class_names = _load_clip_probs(args.model, args.clip)
    result = grade_from_probabilities(probs, class_names)
    print(result.predicted_label)
    print("Sign Grade X:")
    print(result.grade)
    print(result.band)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signet",
        description="Train, evaluate, and grade sign-language clip classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic gesture corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True, choices=range(1, 9), metavar="N")
    p.add_argument("--clips-per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=35)
    p.add_argument("--size", type=_parse_size, default=(64, 64), metavar="HxW")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "train", help="train one architecture on a dataset",
        description="Train one architecture on a dataset. Each batch's clips are stepped "
        "in parallel by forked workers, one per CPU the process may run on, and the model "
        "and history bytes do not depend on the worker count (signet.train._forked_batch "
        "describes how). Run under 'taskset -c 0' for a serial fit.")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", required=True, choices=models.ARCHITECTURES)
    p.add_argument("--out", required=True)
    defaults = train.TrainingConfig()
    p.add_argument("--epochs", type=int, default=defaults.max_epochs)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--patience", type=int, default=defaults.patience)
    p.add_argument("--val-split", type=float, default=defaults.validation_split)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--history", default=None, help="write per-epoch metrics CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="classification report on the eval split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--seed", type=int, default=0, help="split seed used at training time")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="top-K labels for one clip directory")
    p.add_argument("--model", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--top", type=_positive_int, default=2)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("grade", help="grade one sign attempt")
    p.add_argument("--model", required=True)
    p.add_argument("--clip", required=True)
    p.set_defaults(func=cmd_grade)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _PACKAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
