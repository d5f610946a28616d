"""The benchmark's workloads, driving signet only through its public functions.

A run sets up, then runs its workload's focus loop, closed loop with one
client, for ``seconds``. Each unit of work is fixed: a training unit is one
``fit`` of one epoch (``min_epochs = max_epochs = 1``) plus ``save_model``,
and a grade unit is one ``cli.main(["grade", ...])``. Every run reports
every end-to-end metric, so side units, interleaved with the focus units
(see ``Run.loop``), do the kinds of work the focus loop skips, on a small
input size that keeps them cheap.

With tracing on, focus-loop cycles alternate untraced and traced, starting
untraced; per-layer metrics come from the traced units and the tracing
overhead from the ratio of the two.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from signet import cli, data, models, modelio, train
from signet.tensor import Rng

import inputs
import tracer as tracing

ARCHITECTURES = models.ARCHITECTURES
VALIDATION_SPLIT = 0.1  # signet train's default
# Share of the timed loop given to side units.
SIDE_SHARE = 0.4


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts; the full preprocess shape is signet's default."""

    frames: int = 35
    height: int = 64
    width: int = 64
    side_frames: int = 12
    side_height: int = 32
    side_width: int = 32
    clips_per_class: int = 4
    attempts: int = 4
    attempt_frames: int = 48
    attempt_height: int = 96
    attempt_width: int = 128
    setup_repeats: int = 3
    setup_min_seconds: float = 1.0

    @property
    def preprocess(self) -> data.PreprocessConfig:
        return data.PreprocessConfig(self.height, self.width, 1, self.frames)

    @property
    def side_preprocess(self) -> data.PreprocessConfig:
        return data.PreprocessConfig(self.side_height, self.side_width, 1, self.side_frames)


FULL = Sizes()
TINY = Sizes(frames=6, height=16, width=16, side_frames=4, side_height=12, side_width=12,
             attempts=2, attempt_frames=8, attempt_height=20, attempt_width=24,
             setup_repeats=1, setup_min_seconds=0.0)


@dataclass
class Fit:
    arch: str
    clips: int
    seconds: float
    train_loss: float
    traced: bool


@dataclass
class Grade:
    model: str
    seconds: float
    traced: bool


@dataclass
class Run:
    """One workload run: its inputs, counters and timed samples."""

    workload: str
    seed: int
    sizes: Sizes
    work_dir: str
    tracer: tracing.Tracer | None = None
    corpus: str = ""
    side_corpus: str = ""
    attempts: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    fits: list[Fit] = field(default_factory=list)
    grades: list[Grade] = field(default_factory=list)
    histories: dict = field(default_factory=dict)
    saved: dict = field(default_factory=dict)
    traced_now: bool = False

    # -- inputs and set-up -------------------------------------------------

    def write_inputs(self) -> str:
        rng = np.random.default_rng(self.seed)
        s = self.sizes
        root = os.path.join(self.work_dir, "inputs")
        self.corpus = os.path.join(root, "corpus")
        inputs.write_corpus(self.corpus, rng, s.clips_per_class, s.frames, s.height, s.width)
        self.side_corpus = os.path.join(root, "side_corpus")
        inputs.write_corpus(self.side_corpus, rng, s.clips_per_class,
                            s.side_frames, s.side_height, s.side_width)
        self.attempts = inputs.write_attempts(
            os.path.join(root, "attempts"), rng, s.attempts,
            s.attempt_frames, s.attempt_height, s.attempt_width)
        return inputs.digest(root)

    def build(self, arch: str, preprocess: data.PreprocessConfig) -> models.ModelSpec:
        shape = (preprocess.sequence_length, preprocess.target_height,
                 preprocess.target_width, preprocess.channels)
        return models.build(arch, shape, len(inputs.CLASS_NAMES))

    def train_config(self) -> train.TrainingConfig:
        return train.TrainingConfig(max_epochs=1, min_epochs=1, batch_size=10,
                                    validation_split=VALIDATION_SPLIT, seed=self.seed)

    def load_and_build(self) -> tuple[data.DatasetManifest, dict]:
        """load_dataset + build of all four architectures."""
        preprocess = self.sizes.preprocess
        manifest = data.load_dataset(self.corpus, preprocess, seed=self.seed)
        return manifest, {a: self.build(a, preprocess) for a in ARCHITECTURES}

    def write_models(self) -> None:
        """build + init_model + save_model of all four architectures."""
        preprocess = self.sizes.preprocess
        for arch in ARCHITECTURES:
            spec = self.build(arch, preprocess)
            params = models.init_model(spec, Rng(self.seed))
            path = self.model_path(arch, preprocess)
            modelio.save_model(spec, params, preprocess, inputs.CLASS_NAMES, path)
            self.saved[path] = (spec, params, preprocess)

    def timed_setup(self, step):
        """Run ``step`` at least ``setup_repeats`` times and ``setup_min_seconds`` long."""
        result = None
        while (len(self.setup_seconds) < self.sizes.setup_repeats
               or sum(self.setup_seconds) < self.sizes.setup_min_seconds):
            t0 = time.perf_counter()
            result = step()
            self.setup_seconds.append(time.perf_counter() - t0)
        return result

    def model_path(self, arch: str, preprocess: data.PreprocessConfig) -> str:
        p = preprocess
        name = f"{arch}-{p.sequence_length}x{p.target_height}x{p.target_width}.slm"
        return os.path.join(self.work_dir, name)

    # -- units of work -----------------------------------------------------

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def fit_unit(self, arch: str, spec, manifest, preprocess) -> None:
        """One fit of one epoch, then save_model; timed together."""
        self.attempted += 1
        self._tag(arch)
        path = self.model_path(arch, preprocess)
        try:
            t0 = time.perf_counter()
            params, history = train.fit(spec, manifest, self.train_config())
            modelio.save_model(spec, params, preprocess, manifest.class_names, path)
            seconds = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._fail(f"fit {arch} raised")
            return
        losses = [(r.train_loss, r.val_loss) for r in history.records]
        if not np.isfinite(losses).all():
            self._fail(f"fit {arch}: non-finite loss {losses}")
            return
        first = self.histories.setdefault(path, losses)
        if losses != first:
            self.problems.append(f"fit {arch}: losses {losses} differ from {first} on rerun")
        self.saved[path] = (spec, params, preprocess)
        trained = len(manifest.train) - int(len(manifest.train) * VALIDATION_SPLIT)
        self.fits.append(Fit(arch, trained, seconds,
                             history.records[-1].train_loss, self.traced_now))

    def grade_unit(self, arch: str, model: str, clip_dir: str) -> str | None:
        """One in-process ``signet grade``; returns the printed label."""
        self.attempted += 1
        self._tag(arch)
        out, err = io.StringIO(), io.StringIO()
        argv = ["grade", "--model", model, "--clip", clip_dir]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        lines = out.getvalue().splitlines()
        problem = _grade_problem(code, lines, err.getvalue())
        if problem:
            self._fail(f"grade {arch} {os.path.basename(clip_dir)}: {problem}")
            return None
        self.grades.append(Grade(arch, seconds, self.traced_now))
        return lines[0]

    def _tag(self, arch: str) -> None:
        if self.tracer is not None:
            self.tracer.set_tag(arch)

    # -- loops -------------------------------------------------------------

    def loop(self, cycle: list, side: list, seconds: float) -> None:
        """Run the ``cycle`` units (called with the cycle index) for ``seconds``.

        From the second cycle on, side units run round-robin (called with
        their round index) between focus units, taking ``SIDE_SHARE`` of the
        loop's time, so their samples spread over the whole run. With a
        tracer, focus units of odd cycles are traced. The loop stops at the
        first focus unit to end after ``seconds``, once two whole cycles and
        every side unit have run.
        """
        deadline = time.perf_counter() + seconds
        focus_time = side_time = 0.0
        j = 0
        for k in itertools.count():
            traced = self.tracer is not None and k % 2 == 1
            for unit in cycle:
                if k >= 2 and j >= len(side) and time.perf_counter() >= deadline:
                    return
                t0 = time.perf_counter()
                if traced:
                    self._traced(unit, k)
                else:
                    unit(k)
                if k == 0:
                    continue
                focus_time += time.perf_counter() - t0
                while side and side_time < SIDE_SHARE / (1 - SIDE_SHARE) * focus_time:
                    t0 = time.perf_counter()
                    side[j % len(side)](j // len(side))
                    side_time += time.perf_counter() - t0
                    j += 1

    def _traced(self, unit, k: int) -> None:
        self.traced_now = True
        self.tracer.install()
        try:
            unit(k)
        finally:
            self.tracer.uninstall()
            self.traced_now = False

    def check_grades_match_probs(self, graded: dict) -> None:
        """The graded label is the argmax of the in-memory ``predict_probs``."""
        clip = self.attempts[0]
        for arch, path in graded.items():
            spec, params, preprocess = self.saved[path]
            probs = models.predict_probs(spec, params, data.load_clip(clip, preprocess))
            label = self.grade_unit(arch, path, clip)
            want = inputs.CLASS_NAMES[int(np.argmax(probs))]
            if label is not None and label != want:
                self.problems.append(f"grade {arch}: label {label} but argmax is {want}")

    def check_reloads(self) -> None:
        """Every saved model reloads with bit-equal parameters."""
        for path, (_, params, _) in self.saved.items():
            try:
                _, loaded, _, _ = modelio.load_model(path)
            except modelio.ModelFormatError as exc:
                self.problems.append(f"{path}: does not reload: {exc}")
                continue
            same = loaded.names() == params.names() and all(
                loaded[n].data.dtype == params[n].data.dtype
                and np.array_equal(loaded[n].data, params[n].data)
                for n in params.names())
            if not same:
                self.problems.append(f"{path}: reloaded parameters differ from the saved ones")

    # -- results -----------------------------------------------------------

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def end_to_end(self) -> dict:
        fits = [f for f in self.fits if not f.traced]
        grades = [g for g in self.grades if not g.traced]
        losses = {}
        for f in fits:
            losses.setdefault(f.arch, f.train_loss)
        m = {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for arch in ARCHITECTURES:
            rates = [f.clips / f.seconds for f in fits if f.arch == arch]
            m[f"train_clips_per_s.{arch}"] = (_median(rates), "clips/s")
        m["train_loss"] = (_mean(list(losses.values())), "nats")
        total = sum(g.seconds for g in grades)
        m["grade_per_s"] = (len(grades) / total if total else 0.0, "req/s")
        for arch in ARCHITECTURES:
            latencies = [g.seconds for g in grades if g.model == arch]
            m[f"grade_p50_s.{arch}"] = (_median(latencies), "s")
        return m

    def samples(self) -> dict:
        return {
            "setup": len(self.setup_seconds),
            "fits": {a: sum(f.arch == a and not f.traced for f in self.fits)
                     for a in ARCHITECTURES},
            "grades": {a: sum(g.model == a and not g.traced for g in self.grades)
                       for a in ARCHITECTURES},
        }


def _median(values: list[float]) -> float:
    """Median, or 0 (which no real run reports) when every attempt failed."""
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _grade_problem(code: int, lines: list[str], stderr: str) -> str | None:
    if code != 0:
        return f"exit code {code}: {stderr.strip()}"
    if len(lines) != 4:
        return f"{len(lines)} lines printed, expected 4"
    label, title, grade, band = lines
    if label not in inputs.CLASS_NAMES:
        return f"label {label!r} is not a class name"
    if title != "Sign Grade X:":
        return f"unexpected title line {title!r}"
    if not grade.isdigit() or not 0 <= int(grade) <= 100:
        return f"grade {grade!r} is not an integer in [0, 100]"
    if band != cli.band_for_grade(int(grade)):
        return f"band {band!r} does not match grade {grade}"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _fit_units(run: Run, specs: dict, manifest, preprocess) -> list:
    return [lambda k, a=a, spec=spec: run.fit_unit(a, spec, manifest, preprocess)
            for a, spec in specs.items()]


def _grade_units(run: Run, graded: dict) -> list:
    return [lambda k, a=a: run.grade_unit(a, graded[a], run.attempts[k % len(run.attempts)])
            for a in ARCHITECTURES]


def _side_fit_units(run: Run) -> list:
    preprocess = run.sizes.side_preprocess
    manifest = data.load_dataset(run.side_corpus, preprocess, seed=run.seed)
    specs = {a: run.build(a, preprocess) for a in ARCHITECTURES}
    return _fit_units(run, specs, manifest, preprocess)


def run_training(run: Run, seconds: float) -> None:
    preprocess = run.sizes.preprocess
    manifest, specs = run.timed_setup(run.load_and_build)
    # Side units start after the first cycle, which saves every model.
    graded = {a: run.model_path(a, preprocess) for a in ARCHITECTURES}
    run.loop(_fit_units(run, specs, manifest, preprocess), _grade_units(run, graded), seconds)
    run.check_grades_match_probs(graded)
    run.check_reloads()


def run_grading(run: Run, seconds: float) -> None:
    run.timed_setup(run.write_models)
    graded = {a: run.model_path(a, run.sizes.preprocess) for a in ARCHITECTURES}
    run.check_grades_match_probs(graded)
    # The check's grades warm up the file cache; the mix starts after them.
    del run.grades[:]
    run.loop(_grade_units(run, graded), _side_fit_units(run), seconds)
    run.check_reloads()


def run_workload(run: Run, seconds: float) -> None:
    if run.workload == "train":
        run_training(run, seconds)
    else:
        run_grading(run, seconds)


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------


def per_layer(run: Run) -> dict:
    """Traced spans and counts, normalised per trained clip or grade request."""
    t = run.tracer
    traced_fits = [f for f in run.fits if f.traced]
    traced_grades = [g for g in run.grades if g.traced]
    items = sum(f.clips for f in traced_fits) + len(traced_grades)
    total, self_time, calls = (a.sum(axis=0) for a in t.totals())

    def cell(arr, name):
        return float(arr[t.names.index(name)]) / items if name in t.names else 0.0

    m = {}
    for op in tracing.TENSOR_OPS:
        m[f"tensor.{op}.fw_s"] = (cell(total, f"tensor.{op}.fw"), "s/item")
        m[f"tensor.{op}.bw_s"] = (cell(total, f"tensor.{op}.bw"), "s/item")
        m[f"tensor.{op}.calls"] = (cell(calls, f"tensor.{op}.fw"), "calls/item")
    m["tensor.Tape.backward_self_s"] = (cell(self_time, "tensor.Tape.backward"), "s/item")
    m["tensor.Tape.nodes"] = (t.count("tensor.Tape.nodes") / items, "nodes/item")
    m["tensor.Rng.uniforms_s"] = (cell(total, "tensor.Rng.uniforms"), "s/item")
    m["tensor.Rng.draws"] = (t.count("tensor.Rng.draws") / items, "draws/item")
    for f in tracing.NN_FUNCTIONS:
        m[f"nn.{f}.s"] = (cell(total, f"nn.{f}"), "s/item")
        m[f"nn.{f}.self_s"] = (cell(self_time, f"nn.{f}"), "s/item")
    for module, names in tracing.SPANNED.items():
        for f in names:
            m[f"{module}.{f}.s"] = (cell(total, f"{module}.{f}"), "s/item")
    m["modelio.save_model.s"] = (cell(total, "modelio.save_model"), "s/item")
    m["modelio.load_model.s"] = (cell(total, "modelio.load_model"), "s/item")
    m["modelio.file_bytes"] = (t.count("modelio.file_bytes") / items, "B/item")

    # Share of the outermost program call that wrapped spans account for.
    top = "train.fit" if traced_fits else "cli.main"
    covered = 1.0 - cell(self_time, top) / cell(total, top) if cell(total, top) else 0.0
    m["bench.trace_coverage"] = (covered, "share")
    m["bench.trace_overhead"] = (_overhead(run), "ratio")
    return m


def _overhead(run: Run) -> float:
    """Median over architectures of traced over untraced time per focus item."""
    units = ([(f.arch, f.traced, f.clips, f.seconds) for f in run.fits]
             if run.workload == "train" else
             [(g.model, g.traced, 1, g.seconds) for g in run.grades])

    def per_item(arch, traced):
        mine = [(n, s) for a, t, n, s in units if a == arch and t == traced]
        return sum(s for _, s in mine) / sum(n for n, _ in mine) if mine else 0.0

    ratios = [per_item(a, True) / per_item(a, False)
              for a in ARCHITECTURES if per_item(a, True) and per_item(a, False)]
    return statistics.median(ratios)


def arch_table(run: Run, top: int = 6) -> str:
    """Per-architecture breakdown of the traced cycles, for reading by eye."""
    t = run.tracer
    total, self_time, calls = t.totals()
    lines = []
    for ti, tag in enumerate(t.tags):
        items = (sum(f.clips for f in run.fits if f.traced and f.arch == tag)
                 + sum(1 for g in run.grades if g.traced and g.model == tag))
        if not items:
            continue
        ops = {}
        for ni, name in enumerate(t.names):
            if name.startswith("tensor.") and name.endswith((".fw", ".bw")):
                op = name.split(".")[1]
                ops[op] = ops.get(op, 0.0) + total[ti, ni] / items
        ranked = sorted(ops.items(), key=lambda kv: -kv[1])[:top]
        step = sum(f.seconds for f in run.fits if f.traced and f.arch == tag) + sum(
            g.seconds for g in run.grades if g.traced and g.model == tag)
        lines.append(
            f"{tag}: {step / items * 1e3:.0f} ms/item, "
            f"nodes/item {t.count('tensor.Tape.nodes', tag) / items:.0f}; "
            + ", ".join(f"{op} {s * 1e3:.0f} ms" for op, s in ranked))
    return "\n".join(lines)
