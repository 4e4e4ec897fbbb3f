"""The four scampsim benchmark workloads and the loop that measures them.

Every workload is a closed loop with one client: an operation (a frame, a
model, a training run or a loop run) starts when the previous one has been
checked. Inputs come from the seed alone; the library only sees them.
Spans are recorded around each call into the library when tracing is on;
the end-to-end figures come from plain clock reads around each operation.

Two clocks appear here. *Simulated* time is the cost table applied to a
lowered program and is exact. *Host* time is what the simulator takes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from collections import defaultdict
from importlib import resources
from pathlib import Path

import numpy as np

from scampsim import dataset, lowering, model, pnm, program, servo, training
from scampsim.geometry import PlaneGeometry
from scampsim.program import PpaProgram

from spans import Tracer

clock = time.perf_counter

SIZES = {
    "full": dict(frames=128, digest_frames=32, models=20, train_per_class=4,
                 test_per_class=2, epochs=1, servo_pool=2, servo_seconds=5,
                 setup_repeats=31, probe_repeats=5),
    "tiny": dict(frames=4, digest_frames=4, models=4, train_per_class=3,
                 test_per_class=2, epochs=1, servo_pool=2, servo_seconds=1,
                 setup_repeats=2, probe_repeats=1),
}

STAGES = ("replicate", "conv", "relu", "maxpool", "fc")
OPCODES = ("add", "sub", "neg", "copy", "max", "shift", "thresh", "logic",
           "pattern", "gsum")
MODES = ("ideal", "saturating")
GRIDS = (1, 2, 4, 8)
KERNELS = (2, 3, 4, 5, 6)
CLASSES = (2, 3, 4, 5, 6, 7, 8)
SERVOS = 5
SERVO_FPS = 1000
INPUT_SIDE = 64
SENSOR_SIDE = 256

# Reported with --trace 0, by every workload (BENCHMARK.json "end_to_end").
# A shared machine changes speed for tens of seconds at a time; an
# operation's time over that of a fixed calibration loop timed beside it
# follows the code, not the machine's state (see README.md).
END_TO_END = [
    ("op_per_cal", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Reported with --trace 1 (BENCHMARK.json "per_layer"). A workload that
# never calls a layer reports 0 for it; README.md names the owner of each.
PER_LAYER = [
    ("pnm.read_pgm.ms_p50", "ms", "lower"),
    ("lowering.prepare_input.ms_p50", "ms", "lower"),
    ("lowering.make_input_state.ms_p50", "ms", "lower"),
    ("program.execute.ms_p50", "ms", "lower"),
    ("model.reference_infer.ms_p50", "ms", "lower"),
    *[(f"stage.{s}.host_ms", "ms", "lower") for s in STAGES],
    *[(f"stage.{s}.sim_us", "sim_us", "lower") for s in STAGES],
    *[(f"planes.op.{o}.host_ms", "ms", "lower") for o in OPCODES],
    *[(f"planes.op.{o}.count", "count", "lower") for o in OPCODES],
    ("lowering.lower_model.ms_p50", "ms", "lower"),
    ("program.disassemble.ms_p50", "ms", "lower"),
    ("program.parse_listing.ms_p50", "ms", "lower"),
    ("program.estimate.ms_p50", "ms", "lower"),
    *[(f"program.execute.{m}.us_per_instr", "us/instr", "lower") for m in MODES],
    ("program.instructions_total", "count", "lower"),
    ("dataset.generate.s", "s", "lower"),
    ("training.train.s_per_epoch", "s", "lower"),
    ("model.batch_predict.ms_per_img", "ms", "lower"),
    ("training.eval_share", "frac", "lower"),
    ("servo.run_loop.s", "s", "lower"),
    ("servo.reaction_latency.s", "s", "lower"),
    ("servo.to_csv.s", "s", "lower"),
    ("servo.host_us_per_event", "us", "lower"),
    ("servo.events", "count", "lower"),
    ("servo.frames", "count", "lower"),
    ("servo.latched", "count", "higher"),
    ("servo.distinct_frame_ratio", "frac", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]


def sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def default_cost() -> program.CostModel:
    text = resources.files("scampsim.data").joinpath("default_cost.json").read_text()
    return program.CostModel.from_json(text)


def gesture(rng: np.random.Generator) -> np.ndarray:
    """Binary 64x64 rock (disc), paper (square) or scissors (V of two
    prongs) under a seeded rotation, translation and scale. Drawn here, not
    by the library, so a change to `dataset` leaves these inputs alone."""
    label = int(rng.integers(3))
    cy, cx = (INPUT_SIDE - 1) / 2 + rng.uniform(-6, 6, size=2)
    th, s = rng.uniform(-0.4, 0.4), rng.uniform(0.85, 1.15)
    y, x = np.mgrid[0:INPUT_SIDE, 0:INPUT_SIDE]
    y, x = y - cy, x - cx
    u = (np.cos(th) * x + np.sin(th) * y) / s
    v = (-np.sin(th) * x + np.cos(th) * y) / s
    if label == 0:
        inside = u * u + v * v <= 14.0 ** 2
    elif label == 1:
        inside = (np.abs(u) <= 20) & (np.abs(v) <= 20)
    else:
        inside = (np.abs(np.abs(u) - 0.3 * (12 - v)) <= 3.5) & (v >= -22) & (v <= 12)
    return inside.astype(np.uint8)


def p50_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


CAL_PLANE = np.arange(SENSOR_SIDE * SENSOR_SIDE, dtype=np.int32).reshape(
    SENSOR_SIDE, SENSOR_SIDE)


# `setup_s` is reported at the speed at which calibration_s() takes this
# long, about its median on the 2.1 GHz Xeon vCPU the baseline was taken on.
CAL_REF_S = 0.002


def calibration_s() -> float:
    """Host seconds of a fixed loop of interpreted Python and numpy array
    work (about 2 ms) that calls no library code, so a library change
    leaves it alone while a slower machine state slows it too."""
    t0 = clock()
    acc = 0
    for i in range(20000):
        acc += i & 7
    plane = CAL_PLANE
    for _ in range(20):
        plane = np.roll(plane, 1, axis=0) + (CAL_PLANE >> 1)
    return clock() - t0


def op_per_cal(recs: list[dict]) -> float:
    """Median over operations of the operation's host time over the
    calibration time beside it. Operations that differ by design
    (config-sweep's models, told apart by "key") get one median each,
    averaged, so every model weighs the same."""
    groups = defaultdict(list)
    for r in recs:
        groups[r.get("key")].append(r["s"] / r["cal_s"])
    return statistics.fmean(statistics.median(g) for g in groups.values())


class Run:
    """Attempt and failure counts of one run. A failed operation raised or
    failed at least one named output check."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._op_failed = False

    def check(self, ok: bool, name: str):
        if not ok:
            self.failures.append(f"op {self.tr.op}: {name}")
            self._op_failed = True

    def do(self, fn, op_id):
        """Run one checked operation; its record, or None if it raised."""
        self.attempted += 1
        self.tr.op = op_id
        self._op_failed = False
        rec = None
        try:
            with self.tr.span("op"):
                rec = fn()
        except Exception as e:  # counted and reported; the run goes on
            self.check(False, f"raised {type(e).__name__}: {e}")
        self.failed += self._op_failed
        return rec


class Workload:
    name = ""
    stride = 1      # timed operations come in whole multiples of this
    min_ops = 1     # operations (warm-up included) every run makes

    def __init__(self, seed: int, size: dict, workdir: Path, run: Run):
        self.seed, self.size, self.workdir, self.run = seed, size, workdir, run
        self.tr = run.tr
        self.cost = default_cost()

    def make_inputs(self):
        """Draw the seeded inputs; not part of the timed set-up."""

    def setup(self):
        """The library's set-up calls (timed as `setup_s`)."""
        raise NotImplementedError

    def op(self, i: int) -> dict:
        """One operation; returns host seconds of its timed part under "s"."""
        raise NotImplementedError

    def finish(self, traced: bool):
        """Checks and layer probes made once, after the measured loop."""

    def named(self, recs: list[dict]) -> dict:
        """The workload's own end-to-end figures: name -> (value, unit, clock)."""
        raise NotImplementedError

    def exact(self) -> dict:
        return {}

    def digests(self) -> dict:
        return {}

    def per_layer(self) -> dict:
        return {}


class InferStream(Workload):
    """The default model classifies a stream that cycles through distinct
    gestures, each read from a 256x256 grayscale PGM: read_pgm ->
    prepare_input -> make_input_state -> execute -> argmax, one frame at a
    time."""

    name = "infer-stream"

    @property
    def min_ops(self):
        return self.size["digest_frames"]

    def make_inputs(self):
        rng = np.random.default_rng([self.seed, 1])
        frames_dir = self.workdir / "frames"
        shutil.rmtree(frames_dir, ignore_errors=True)
        frames_dir.mkdir(parents=True)
        up = SENSOR_SIDE // INPUT_SIDE
        self.bits, self.paths = [], []
        for j in range(self.size["frames"]):
            bits = gesture(rng)
            on = np.kron(bits, np.ones((up, up), dtype=np.uint8)).astype(bool)
            # grey levels either side of the 127 threshold, so thresholding
            # and majority downsampling give back exactly `bits`
            gray = np.where(on, rng.integers(128, 256, on.shape),
                            rng.integers(0, 128, on.shape)).astype(np.uint8)
            path = frames_dir / f"frame{j:04d}.pgm"
            path.write_bytes(b"P5\n%d %d\n255\n" % (SENSOR_SIDE, SENSOR_SIDE)
                             + gray.tobytes())
            self.bits.append(bits)
            self.paths.append(path)

    def setup(self):
        self.model = model.default_model()
        with self.tr.span("lowering.lower_model"):
            self.program, self.plan = lowering.lower_model(self.model)
        with self.tr.span("program.estimate"):
            self.report = program.estimate(self.program, self.cost)
        self.sums: list[list[int]] = []
        self.stage_sim_us: dict[str, float] = {}
        self.op_counts: dict[str, int] = {}

    def op(self, i):
        j = i % len(self.paths)
        tr = self.tr
        t0 = clock()
        with tr.span("pnm.read_pgm", frame=j):
            img = pnm.read_pgm(self.paths[j])
        with tr.span("lowering.prepare_input"):
            x = lowering.prepare_input(img)
        with tr.span("lowering.make_input_state"):
            state = lowering.make_input_state(x)
        with tr.span("program.execute", instructions=len(self.program)):
            _, sums = program.execute(self.program, state)
        predicted = model.argmax(sums)
        dt = clock() - t0
        with tr.span("model.reference_infer"):
            ref = model.reference_infer(self.model, self.bits[j])
        self.run.check(sums == [4 * s for s in ref.sums], "sums-equal-4x-reference")
        self.run.check(predicted == ref.predicted, "prediction-matches-reference")
        if i < self.size["digest_frames"]:
            self.sums.append(sums)
        return {"s": dt}

    def _stage_probe(self, reps):
        """Run the default program as five consecutive stage slices on one
        state; the slices' sums must equal the whole program's."""
        x = self.bits[0]
        _, whole = program.execute(self.program, lowering.make_input_state(x))
        slices = {s: PpaProgram(self.program.instructions[a:b])
                  for s, (a, b) in self.plan.stage_ranges.items()}
        for _ in range(reps):
            state = lowering.make_input_state(x)
            sums = []
            for s, sl in slices.items():
                with self.tr.span(f"stage.{s}", instructions=len(sl)):
                    sums += program.execute(sl, state)[1]
            self.run.check(sums == whole, "stage-slice-sums-equal-whole-program")
        over = self.cost.overhead_us
        self.stage_sim_us = {s: program.estimate(sl, self.cost).latency_us - over
                             for s, sl in slices.items()}
        self.run.check(math.isclose(sum(self.stage_sim_us.values()) + over,
                                    self.report.latency_us, rel_tol=1e-12),
                       "stage-sim-us-sum-to-device-latency")

    def _planes_probe(self, reps):
        """Time each opcode through single-instruction programs over a state
        that holds a real frame's planes."""
        state = lowering.make_input_state(self.bits[0])
        program.execute(self.program, state)
        singles = defaultdict(list)
        for ins in self.program.instructions:
            singles[ins.opcode].append(PpaProgram([ins]))
        for _ in range(reps):
            for op, progs in singles.items():
                with self.tr.span(f"planes.op.{op}", instructions=len(progs)):
                    for p in progs:
                        program.execute(p, state)
        self.op_counts = {op: len(p) for op, p in singles.items()}
        self.run.check(self.op_counts == self.plan.instruction_counts,
                       "opcode-counts-match-plan")

    def finish(self, traced):
        reps = self.size["probe_repeats"] if traced else 1
        self.run.do(lambda: self._stage_probe(reps), "stage-probe")
        if traced:
            self.run.do(lambda: self._planes_probe(reps), "planes-probe")

    def named(self, recs):
        s = [r["s"] for r in recs]
        return {
            "frame_ms_p50": (p50_ms(s), "ms", "host"),
            "frame_ms_p95": (float(np.percentile(s, 95)) * 1e3, "ms", "host"),
            "device_latency_us": (self.report.latency_us, "sim_us", "simulated"),
        }

    def exact(self):
        return {"device_latency_us": self.report.latency_us,
                "device_fps": self.report.throughput_fps,
                "instructions": len(self.program),
                "stage_sim_us": self.stage_sim_us}

    def digests(self):
        return {"frame_sums": sha256(self.sums)}

    def per_layer(self):
        def ms(name):
            return self.tr.median_s(name) * 1e3

        out = {f"{n}.ms_p50": ms(n) for n in (
            "pnm.read_pgm", "lowering.prepare_input", "lowering.make_input_state",
            "program.execute", "model.reference_infer",
            "lowering.lower_model", "program.estimate")}
        for s in STAGES:
            out[f"stage.{s}.host_ms"] = ms(f"stage.{s}")
            out[f"stage.{s}.sim_us"] = self.stage_sim_us.get(s, 0.0)
        for o in OPCODES:
            out[f"planes.op.{o}.host_ms"] = ms(f"planes.op.{o}")
            out[f"planes.op.{o}.count"] = self.op_counts.get(o, 0)
        return out


class ConfigSweep(Workload):
    """Seeded random models over every block grid, kernel size 2..6 and 2..8
    classes. Per model: lower, disassemble and parse back, estimate, then
    execute one input in each analog mode against the dense oracle."""

    name = "config-sweep"

    @property
    def stride(self):
        return self.size["models"]

    @property
    def min_ops(self):
        return self.size["models"]

    def make_inputs(self):
        # a fixed design: every (grid, k) pair once, class counts cycling
        # through 2..8; the seed draws the weights, the inputs and the order,
        # so every seed brings the same amount of work
        rng = np.random.default_rng([self.seed, 2])
        design = [(g, k, CLASSES[j % len(CLASSES)])
                  for j, (g, k) in enumerate((g, k) for g in GRIDS for k in KERNELS)]
        self.specs = []
        for j in rng.permutation(len(design))[: self.size["models"]]:
            grid, k, classes = design[j]
            geom = PlaneGeometry(SENSOR_SIDE, SENSOR_SIDE, grid, SENSOR_SIDE // grid)
            spec = dict(seed=int(rng.integers(2 ** 31)), num_classes=classes, k=k,
                        geometry=geom)
            inputs = {mode: rng.integers(0, 2, (geom.block_size,) * 2, dtype=np.uint8)
                      for mode in MODES}
            self.specs.append((spec, inputs))

    def setup(self):
        self.schedule = [(model.random_model(**spec), inputs)
                         for spec, inputs in self.specs]
        self.listing_digests: dict[int, str] = {}
        self.lengths: dict[int, int] = {}

    def op(self, i):
        j = i % len(self.schedule)
        m, inputs = self.schedule[j]
        tr = self.tr
        t0 = clock()
        with tr.span("lowering.lower_model", model=j):
            prog, _ = lowering.lower_model(m)
        compile_s = clock() - t0
        with tr.span("program.disassemble"):
            text = program.disassemble(prog)
        with tr.span("program.parse_listing"):
            back = program.parse_listing(text)
        self.run.check(back == prog, "listing-round-trip")
        with tr.span("program.estimate"):
            program.estimate(prog, self.cost)
        exec_s = 0.0
        for mode, x in inputs.items():
            with tr.span("lowering.make_input_state"):
                state = lowering.make_input_state(x, m.geometry, mode)
            te = clock()
            with tr.span(f"program.execute.{mode}", instructions=len(prog)):
                _, sums = program.execute(prog, state)
            exec_s += clock() - te
            with tr.span("model.reference_infer"):
                ref = model.reference_infer(m, x)
            self.run.check(sums == [4 * s for s in ref.sums],
                           f"sums-equal-4x-reference[{mode}]")
            self.run.check(model.argmax(sums) == ref.predicted,
                           f"prediction-matches-reference[{mode}]")
        dt = clock() - t0
        if j not in self.listing_digests:
            self.listing_digests[j] = sha256(text.encode())
            self.lengths[j] = len(prog)
        return {"s": dt, "key": j, "compile_s": compile_s, "exec_s": exec_s,
                "instructions": len(prog) * len(inputs)}

    def named(self, recs):
        # the loop runs whole passes over the schedule, so every model
        # weighs the same in these figures
        return {
            "verified_models_per_s": (len(recs) / sum(r["s"] for r in recs), "1/s", "host"),
            "sim_instr_per_s": (sum(r["instructions"] for r in recs)
                                / sum(r["exec_s"] for r in recs), "1/s", "host"),
            "compile_ms_p50": (p50_ms([r["compile_s"] for r in recs]), "ms", "host"),
        }

    def exact(self):
        return {"instructions_total": sum(self.lengths.values()),
                "program_lengths": [self.lengths[j] for j in sorted(self.lengths)]}

    def digests(self):
        return {"listings": sha256([self.listing_digests[j]
                                    for j in sorted(self.listing_digests)])}

    def per_layer(self):
        out = {f"{n}.ms_p50": self.tr.median_s(n) * 1e3 for n in (
            "lowering.lower_model", "program.disassemble", "program.parse_listing",
            "program.estimate", "lowering.make_input_state", "model.reference_infer")}
        for mode in MODES:
            spans = self.tr.named(f"program.execute.{mode}")
            ns = sum(s["end_ns"] - s["start_ns"] for s in spans)
            instr = sum(s["args"]["instructions"] for s in spans)
            out[f"program.execute.{mode}.us_per_instr"] = ns / 1e3 / instr if instr else 0.0
        out["program.instructions_total"] = sum(self.lengths.values())
        return out


class Train(Workload):
    """A small seeded split, trained for a fixed number of epochs and then
    evaluated on its held-out part. Never touches the executor."""

    name = "train"

    def setup(self):
        with self.tr.span("dataset.generate"):
            self.data = dataset.generate(self.seed, self.size["train_per_class"],
                                         self.size["test_per_class"])
        self.config = training.TrainConfig(seed=self.seed, epochs=self.size["epochs"])
        self.xs_test = np.stack([s.image for s in self.data.test])
        self.ys_test = np.array([s.label for s in self.data.test])
        self.weights_digest = None
        self.test_acc = None

    def op(self, i):
        tr = self.tr
        t0 = clock()
        with tr.span("training.train", epochs=self.config.epochs):
            trained, log = training.train(self.data, self.config)
        t1 = clock()
        with tr.span("training.evaluate", images=len(self.xs_test)):
            acc, _ = training.evaluate(trained, self.data.test)
        t2 = clock()
        preds = []
        for x in self.xs_test:
            with tr.span("model.reference_infer"):
                preds.append(model.reference_infer(trained, x).predicted)
        self.run.check(acc == float(np.mean(np.array(preds) == self.ys_test)),
                       "accuracy-matches-reference")
        self.run.check(acc == log.records[log.best_epoch].test_acc,
                       "evaluate-matches-training-log")
        digest = sha256(model.save_weights(trained).encode())
        if self.weights_digest is None:
            self.weights_digest, self.test_acc = digest, acc
        self.run.check(digest == self.weights_digest and acc == self.test_acc,
                       "training-deterministic")
        self.trained = trained
        return {"s": t2 - t0, "train_s": t1 - t0, "eval_s": t2 - t1}

    def finish(self, traced):
        if traced:
            for _ in range(self.size["probe_repeats"]):
                with self.tr.span("model.batch_predict", images=len(self.xs_test)):
                    model.batch_predict(self.trained, self.xs_test)

    def named(self, recs):
        return {
            "train_s": (statistics.median(r["train_s"] for r in recs), "s", "host"),
            "eval_img_per_s": (len(self.xs_test)
                               / statistics.median(r["eval_s"] for r in recs), "1/s", "host"),
            "test_acc": (self.test_acc, "frac", "exact"),
        }

    def exact(self):
        return {"test_acc": self.test_acc, "epochs": self.config.epochs,
                "train_images": len(self.data.train), "test_images": len(self.xs_test)}

    def digests(self):
        return {"weights_json": self.weights_digest}

    def per_layer(self):
        epoch_s = self.tr.median_s("training.train") / self.config.epochs
        img_ms = self.tr.median_s("model.batch_predict") * 1e3 / len(self.xs_test)
        # derived: every epoch predicts the whole train and test split once
        images = len(self.data.train) + len(self.data.test)
        return {
            "dataset.generate.s": self.tr.median_s("dataset.generate"),
            "training.train.s_per_epoch": epoch_s,
            "model.batch_predict.ms_per_img": img_ms,
            "training.eval_share": img_ms * images / 1e3 / epoch_s if epoch_s else 0.0,
            "model.reference_infer.ms_p50": self.tr.median_s("model.reference_infer") * 1e3,
        }


class ServoLoop(Workload):
    """run_loop with five servos at 1000 fps over a long simulated span,
    then reaction_latency and to_csv. Frames repeat a small pool of distinct
    gestures, so run_loop's identical-frame cache absorbs most executes."""

    name = "servo-loop"

    def make_inputs(self):
        rng = np.random.default_rng([self.seed, 4])
        pool, seen = [], set()
        while len(pool) < self.size["servo_pool"]:
            g = gesture(rng)
            if g.tobytes() not in seen:
                seen.add(g.tobytes())
                pool.append(g)
        n = self.size["servo_seconds"] * SERVO_FPS
        period_us = 1_000_000 // SERVO_FPS
        self.pool = pool
        self.pool_index = rng.integers(len(pool), size=n)
        self.frames = [(t * period_us, pool[p]) for t, p in enumerate(self.pool_index)]
        self.duration_us = n * period_us

    def setup(self):
        self.model = model.default_model()
        with self.tr.span("lowering.lower_model"):
            self.program, _ = lowering.lower_model(self.model)
        self.latency_us = round(program.estimate(self.program, self.cost).latency_us)
        self.bank = servo.ServoBank([servo.ServoModel() for _ in range(SERVOS)])
        self.oracle = None
        self.csv_digest = None

    def op(self, i):
        tr = self.tr
        t0 = clock()
        with tr.span("servo.run_loop", frames=len(self.frames)):
            tl = servo.run_loop(self.frames, self.program, self.cost, self.bank,
                                self.duration_us)
        t1 = clock()
        with tr.span("servo.reaction_latency"):
            reactions = servo.reaction_latency(tl)
        t2 = clock()
        with tr.span("servo.to_csv"):
            csv = tl.to_csv()
        t3 = clock()
        if self.oracle is None:
            self.oracle = []
            for g in self.pool:
                with tr.span("model.reference_infer"):
                    ref = model.reference_infer(self.model, g)
                self.oracle.append(self.model.class_names[ref.predicted])
        latched = [r.reaction_us for r in reactions if r.latched]
        self.run.check(all(self.latency_us < r <= self.latency_us + servo.PWM_PERIOD_US
                           for r in latched), "reaction-within-one-pwm-period")
        self.run.check(all(e.class_name == self.oracle[self.pool_index[e.frame_index]]
                           for e in tl.events if e.kind == "frame"),
                       "frame-class-matches-reference")
        digest = sha256(csv.encode())
        if self.csv_digest is None:
            self.csv_digest = digest
            self.counts = {"events": len(tl.events), "frames": len(self.frames),
                           "latched": len(latched), "dropped": len(tl.dropped_frames),
                           "reaction_us_max": max(latched)}
        self.run.check(digest == self.csv_digest, "loop-deterministic")
        return {"s": t3 - t0}

    def named(self, recs):
        c = self.counts
        return {
            "loop_sim_s_per_host_s": (self.duration_us / 1e6
                                      / statistics.median(r["s"] for r in recs), "1/s", "host"),
            "reaction_us_max": (c["reaction_us_max"], "sim_us", "simulated"),
            "drop_frac": (c["dropped"] / c["frames"], "frac", "simulated"),
        }

    def exact(self):
        return {**self.counts, "distinct_frames": len(self.pool),
                "inference_latency_us": self.latency_us}

    def digests(self):
        return {"timeline_csv": self.csv_digest}

    def per_layer(self):
        parts = ("servo.run_loop", "servo.reaction_latency", "servo.to_csv")
        out = {f"{n}.s": self.tr.median_s(n) for n in parts}
        c = self.counts
        out["servo.host_us_per_event"] = sum(out.values()) * 1e6 / c["events"]
        out["servo.events"] = c["events"]
        out["servo.frames"] = c["frames"]
        out["servo.latched"] = c["latched"]
        out["servo.distinct_frame_ratio"] = len(self.pool) / c["frames"]
        out["model.reference_infer.ms_p50"] = self.tr.median_s("model.reference_infer") * 1e3
        out["lowering.lower_model.ms_p50"] = self.tr.median_s("lowering.lower_model") * 1e3
        return out


WORKLOADS = {w.name: w for w in (InferStream, ConfigSweep, Train, ServoLoop)}


def _loop(wl: Workload, run: Run, seconds: float, first: int, min_ops: int,
          between):
    """Checked operations until `seconds` have passed, at least up to
    operation `min_ops`, and in whole multiples of the workload's stride.
    `between()` runs before each operation, outside its timing. The
    calibration loop runs right before and after each operation; the
    lower of the two is its "cal_s"."""
    recs, i, start = [], first, clock()
    while clock() - start < seconds or i < min_ops or len(recs) % wl.stride:
        between()
        before = calibration_s()
        rec = run.do(lambda: wl.op(i), i)
        after = calibration_s()
        if rec is not None:
            rec["t"] = clock() - start
            rec["cal_s"] = min(before, after)
            recs.append(rec)
        i += 1
    return recs, i


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size: str, workdir: Path) -> dict:
    tr = Tracer()
    run = Run(tr)
    wl = WORKLOADS[name](seed, SIZES[size], workdir, run)
    repeats = wl.size["setup_repeats"]
    setup_s, setup_cal_s = [], []

    def timed_setup(w: Workload):
        before = calibration_s()
        t0 = clock()
        w.setup()
        setup_s.append(clock() - t0)
        setup_cal_s.append(min(before, calibration_s()))

    def spare_setup():
        # Set-up is repeated on throwaway copies spread over the run, so
        # the median samples as many states of a shared machine as the
        # operations do. The copies share the inputs drawn once below.
        if len(setup_s) < repeats and clock() - start >= len(setup_s) * seconds / repeats:
            timed_setup(copy.copy(wl))

    wl.make_inputs()
    tr.enabled = traced
    timed_setup(wl)
    tr.enabled = False

    run.do(lambda: wl.op(0), 0)  # warm-up: checked, not timed
    start = clock()
    if traced:
        untraced, i = _loop(wl, run, seconds / 2, 1, wl.min_ops, spare_setup)
        tr.enabled = True
        recs, _ = _loop(wl, run, seconds / 2, i, 0, spare_setup)
    else:
        recs, _ = _loop(wl, run, seconds, 1, wl.min_ops, spare_setup)
    while len(setup_s) < repeats:
        timed_setup(copy.copy(wl))
    if not recs:
        raise RuntimeError(f"every operation failed: {run.failures[:5]}")
    wl.finish(traced)
    tr.enabled = False

    setup_med = CAL_REF_S * statistics.median(
        s / c for s, c in zip(setup_s, setup_cal_s))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = {**wl.named(recs),
             "setup_s": (setup_med, "s", "host, at CAL_REF_S"),
             "peak_rss_mb": (peak_rss_mb, "MB", "host"),
             "failed_frac": (run.failed / run.attempted, "frac", "exact")}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "size": size,
        "setup_s_samples": setup_s,
        "setup_cal_s_samples": setup_cal_s,
        "ops_timed": len(recs),
        "op_ms_min": min(r["s"] for r in recs) * 1e3,
        "op_ms_p50": statistics.median(r["s"] for r in recs) * 1e3,
        "cal_ms_p50": statistics.median(r["cal_s"] for r in recs) * 1e3,
        "ops": recs,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures,
        "named": {k: {"value": v, "unit": u, "clock": c} for k, (v, u, c) in named.items()},
        "exact": wl.exact(),
        "digests": wl.digests(),
    }
    values = {"op_per_cal": op_per_cal(recs), "setup_s": setup_med,
              "peak_rss_mb": peak_rss_mb}
    if traced:
        layer = dict.fromkeys((n for n, _, _ in PER_LAYER), 0.0)
        layer.update(wl.per_layer())
        layer["trace_overhead_frac"] = op_per_cal(recs) / op_per_cal(untraced) - 1
        result["per_layer"] = layer
        result["metrics"] = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}
        result["tracer"] = tr
    else:
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    return result
