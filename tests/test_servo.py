import csv
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scampsim import servo
from scampsim.lowering import LoweringError, lower_model, make_input_state
from scampsim.model import BnnModel, argmax, random_model, reference_infer
from scampsim.planes import NoiseModel
from scampsim.pnm import atomic_write
from scampsim.program import CostModel, execute
from scampsim.servo import (DEFAULT_CLASS_ANGLES, MAX_SERVOS, PWM_PERIOD_US,
                            ReactionRecord, ServoBank, ServoError, ServoModel,
                            reaction_latency, run_loop)


@pytest.fixture(scope="module")
def model():
    return random_model(seed=0)


@pytest.fixture(scope="module")
def program(model):
    prog, _ = lower_model(model)
    return prog


def uniform_cost_121(program):
    """A uniform per-op cost giving exactly integer-rounded 121 us latency."""
    return CostModel({op: 121.0 / len(program) for op in
                      {i.opcode for i in program.instructions}})


@pytest.fixture(scope="module")
def cost_121(program):
    return uniform_cost_121(program)


def one_frame(rng=None):
    rng = rng or np.random.default_rng(0)
    return rng.integers(0, 2, size=(64, 64)).astype(np.uint8)


def bank():
    return ServoBank([ServoModel()])


class TestServoBank:
    def test_five_accepted(self):
        ServoBank([ServoModel() for _ in range(MAX_SERVOS)])

    def test_six_rejected(self):
        with pytest.raises(ServoError):
            ServoBank([ServoModel() for _ in range(6)])

    def test_zero_rejected(self):
        with pytest.raises(ServoError):
            ServoBank([])

    def test_bank_cannot_change_after_its_checks(self):
        servos = [ServoModel()]
        bank = ServoBank(servos)
        servos.extend([ServoModel()] * 6)   # the bank holds its own tuple
        assert bank.servos == (servos[0],)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bank.servos = servos
        with pytest.raises(AttributeError):
            bank.servos.append(ServoModel())

    @pytest.mark.parametrize("slew, line", [
        (-600.0, "slew limit must be a number > 0 deg/s, got -600.0"),
        (0, "slew limit must be a number > 0 deg/s, got 0"),
        (math.nan, "slew limit must be a number > 0 deg/s, got nan"),
        (-math.inf, "slew limit must be a number > 0 deg/s, got -inf"),
        ("600", "slew limit must be a number > 0 deg/s, got '600'"),
        (True, "slew limit must be a number > 0 deg/s, got True"),
    ])
    def test_bad_slew_limit_rejected(self, slew, line):
        with pytest.raises(ServoError) as err:
            ServoModel(slew_limit_deg_per_s=slew)
        assert str(err.value) == line

    @pytest.mark.parametrize("angle, line", [
        (math.nan, "class angle for 'rock' must be a finite number, got nan"),
        (math.inf, "class angle for 'rock' must be a finite number, got inf"),
        (-math.inf, "class angle for 'rock' must be a finite number, got -inf"),
        ("90", "class angle for 'rock' must be a finite number, got '90'"),
        (None, "class angle for 'rock' must be a finite number, got None"),
        (False, "class angle for 'rock' must be a finite number, got False"),
    ])
    def test_bad_class_angle_rejected(self, angle, line):
        with pytest.raises(ServoError) as err:
            ServoModel({"paper": 90.0, "rock": angle})
        assert str(err.value) == line

    def test_model_cannot_change_after_its_checks(self):
        angles = {"rock": 0.0}
        m = ServoModel(angles, 600.0)
        angles["rock"] = math.nan   # the model holds its own copy
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.slew_limit_deg_per_s = math.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.class_angles = {"rock": math.nan}
        with pytest.raises(TypeError):
            m.class_angles["rock"] = math.nan
        assert (dict(m.class_angles), m.slew_limit_deg_per_s) == ({"rock": 0.0}, 600.0)

    def test_infinite_slew_lands_on_the_target_at_one_edge(self, program, cost_121):
        x = np.ones((64, 64), dtype=np.uint8)   # classified as rock
        servos = ServoBank([ServoModel({"rock": 180.0}, math.inf)])
        tl = run_loop([(0, x)], program, cost_121, servos, 10_000)
        assert [(e.t_us, e.angle) for e in tl.events if e.kind == "angle_update"] \
            == [(PWM_PERIOD_US, 180.0)]


class TestRunLoop:
    def test_frame_at_zero_latches_at_first_edge(self, program, cost_121):
        tl = run_loop([(0, one_frame())], program, cost_121, bank(), 10_000)
        assert tl.inference_latency_us == 121
        assert tl.frame_latched_at[0] == 3003

    def test_no_frames_only_edges(self, program, cost_121):
        tl = run_loop([], program, cost_121, bank(), 10_000)
        kinds = {e.kind for e in tl.events}
        assert kinds == {"pwm_edge"}
        assert sum(1 for e in tl.events if e.kind == "pwm_edge") == 4

    def test_last_writer_wins_within_period(self, program, cost_121, rng):
        # two frames inside one PWM period: only the later result latches
        f0, f1 = one_frame(rng), one_frame(rng)
        tl = run_loop([(0, f0), (500, f1)], program, cost_121, bank(), 10_000)
        assert tl.frame_latched_at == {1: 3003}
        assert tl.dropped_frames == [0]

    def test_nonmonotonic_timestamps_rejected(self, program, cost_121):
        with pytest.raises(ServoError):
            run_loop([(100, one_frame()), (0, one_frame())], program, cost_121,
                     bank(), 10_000)

    def test_duration_must_cover_frames(self, program, cost_121):
        with pytest.raises(ServoError):
            run_loop([(20_000, one_frame())], program, cost_121, bank(), 10_000)

    def test_negative_duration_rejected(self, program, cost_121):
        with pytest.raises(ServoError, match="duration must be >= 0 us, got -5"):
            run_loop([], program, cost_121, bank(), -5)

    def test_events_sorted_and_updates_on_edges(self, program, cost_121, rng):
        frames = [(i * 2000, one_frame(rng)) for i in range(5)]
        tl = run_loop(frames, program, cost_121, bank(), 30_000)
        times = [e.t_us for e in tl.events]
        assert times == sorted(times)
        edges = {e.t_us for e in tl.events if e.kind == "pwm_edge"}
        for e in tl.events:
            if e.kind == "angle_update":
                assert e.t_us in edges
            if e.kind == "inference_done":
                frame_t = dict(frames and [(i, t) for i, (t, _) in enumerate(frames)])
                assert e.t_us == frame_t[e.frame_index] + 121

    def test_slew_limit_respected(self, program, cost_121):
        x = np.ones((64, 64), dtype=np.uint8)
        tl = run_loop([(0, x)], program, cost_121, bank(), 300_000)
        updates = [e.angle for e in tl.events if e.kind == "angle_update"]
        max_step = 600.0 * PWM_PERIOD_US / 1e6
        prev = 0.0
        for a in updates:
            assert abs(a - prev) <= max_step + 1e-9
            prev = a

    def test_deterministic_csv(self, program, cost_121, rng):
        frames = [(i * 1500, one_frame(rng)) for i in range(4)]
        t1 = run_loop(frames, program, cost_121, bank(), 20_000).to_csv()
        t2 = run_loop(frames, program, cost_121, bank(), 20_000).to_csv()
        assert t1 == t2


class TestFrameCache:
    @pytest.mark.parametrize("recast, error", [
        (lambda x: x.reshape(32, 128), "input must be 64x64"),
        # the same bytes read as float16 hold 0 and 6e-8, not bits
        (lambda x: x.view(np.float16), "strictly binary"),
    ], ids=["shape", "dtype"])
    def test_malformed_frame_with_cached_bytes_rejected(self, program, cost_121,
                                                        recast, error):
        x = one_frame().astype(np.int16)
        with pytest.raises(LoweringError, match=error):
            run_loop([(0, x), (10, recast(x))], program, cost_121, bank(), 10_000)

    # a frame object executes once, however often it repeats; a fresh copy
    # per frame is a new object each time and executes for each frame
    @pytest.mark.parametrize("fresh", [False, True],
                             ids=["pool-objects-reused", "fresh-copy-per-frame"])
    def test_noisy_frames_execute_once_per_distinct_frame(
            self, program, cost_121, model, monkeypatch, rng, fresh):
        noise = NoiseModel(50.0, 3)
        pool = [one_frame(rng), one_frame(rng)]
        picks = rng.integers(0, 2, size=20)
        frames = [(i * 1000, pool[p].copy() if fresh else pool[p])
                  for i, p in enumerate(picks)]
        calls = []

        def counting_execute(*args, **kwargs):
            calls.append(1)
            return execute(*args, **kwargs)

        monkeypatch.setattr(servo, "execute", counting_execute)
        tl = run_loop(frames, program, cost_121, bank(), 30_000, noise=noise)
        assert len(calls) == (len(frames) if fresh else len(pool))
        # the same loop with every frame classified afresh, no cache
        classes = []
        for _, x in frames:
            _, sums = execute(program, make_input_state(x, noise=noise))
            classes.append(model.class_names[argmax(sums)])
        expected, _ = reference_loop([t for t, _ in frames], classes, [600.0],
                                     30_000)
        assert tl.to_csv() == expected


class TestReactionLatency:
    def test_frame_at_zero(self, program, cost_121):
        tl = run_loop([(0, one_frame())], program, cost_121, bank(), 10_000)
        (rec,) = reaction_latency(tl)
        assert rec == ReactionRecord(0, 0, True, 3003)

    def test_spec_arithmetic_example(self, program, cost_121):
        # frame 2900 -> done 3021 -> latch 6006 -> reaction 3106
        tl = run_loop([(2900, one_frame())], program, cost_121, bank(), 10_000)
        (rec,) = reaction_latency(tl)
        assert rec.reaction_us == 3106

    def test_phase_sweep_bounded(self, program, cost_121):
        # coarse sweep here; the exhaustive sweep lives in the acceptance suite
        for phase in range(0, 3003, 211):
            tl = run_loop([(phase, one_frame())], program, cost_121,
                          bank(), 12_000)
            (rec,) = reaction_latency(tl)
            assert 121 <= rec.reaction_us <= 121 + PWM_PERIOD_US

    def test_dropped_frames_reported(self, program, cost_121, rng):
        tl = run_loop([(0, one_frame(rng)), (400, one_frame(rng))], program,
                      cost_121, bank(), 10_000)
        recs = reaction_latency(tl)
        assert [r.latched for r in recs] == [False, True]
        assert recs[0].reaction_us is None


class TestClassAngles:
    def test_default_table(self):
        assert DEFAULT_CLASS_ANGLES == {"rock": 0.0, "paper": 90.0,
                                        "scissors": 180.0}

    def test_servo_moves_toward_commanded_class(self, program, cost_121):
        # constant all-ones frames give one fixed class; servo converges there
        x = np.ones((64, 64), dtype=np.uint8)
        tl = run_loop([(0, x)], program, cost_121, bank(), 1_000_000)
        updates = [e for e in tl.events if e.kind == "angle_update"]
        target = DEFAULT_CLASS_ANGLES[updates[0].class_name]
        assert updates[-1].angle == pytest.approx(target)


# -- an independent reference for the loop --------------------------------


LATENCY_US = 121  # what cost_121 gives the program


def reference_loop(frame_times, classes, slews, duration_us, tables=None):
    """The loop stepped PWM edge by edge in plain Python.

    Frame i, captured at frame_times[i], completes LATENCY_US later with class
    classes[i]. Each edge latches the last frame completing in the period
    before it; servo s then slews toward the class angle in tables[s] (the
    default table when tables is None), clamped to 0..180 degrees, at
    slews[s] deg/s, and holds its angle for a class outside its table.
    Returns the timeline CSV and the reaction records run_loop must give.
    """
    period = PWM_PERIOD_US
    n = len(frame_times)
    done = [t + LATENCY_US for t in frame_times]
    tables = tables or [DEFAULT_CLASS_ANGLES] * len(slews)
    lines = ["t_us,event,servo_id,class,angle"]
    next_frame = next_done = 0

    def emit_captures_until(t_end):
        # frame and inference_done rows up to t_end, frames first on ties
        nonlocal next_frame, next_done
        while next_done < n:
            if next_frame < n and frame_times[next_frame] <= done[next_done]:
                if frame_times[next_frame] > t_end:
                    return
                lines.append(f"{frame_times[next_frame]},frame,,"
                             f"{classes[next_frame]},")
                next_frame += 1
            else:
                if done[next_done] > t_end:
                    return
                lines.append(f"{done[next_done]},inference_done,,"
                             f"{classes[next_done]},")
                next_done += 1

    latched_at = [None] * n
    angles = [0.0] * len(slews)
    command = None
    t_edge = 0
    while t_edge <= duration_us:
        emit_captures_until(t_edge)
        lines.append(f"{t_edge},pwm_edge,,,")
        ready = [i for i in range(n) if t_edge - period <= done[i] < t_edge]
        if ready:
            command = classes[ready[-1]]
            latched_at[ready[-1]] = t_edge
        if command is not None:
            for sid, (slew, table) in enumerate(zip(slews, tables)):
                if command in table:
                    target = min(max(table[command], 0.0), 180.0)
                else:
                    target = angles[sid]
                step = slew * PWM_PERIOD_US / 1e6
                if not ready and angles[sid] == target:
                    continue
                if abs(target - angles[sid]) <= step:
                    angles[sid] = target
                else:
                    angles[sid] += math.copysign(step, target - angles[sid])
                lines.append(f"{t_edge},angle_update,{sid},{command},"
                             f"{angles[sid]:.4f}")
        t_edge += period
    emit_captures_until(math.inf)
    records = [ReactionRecord(i, t, latched_at[i] is not None,
                              None if latched_at[i] is None else latched_at[i] - t)
               for i, t in enumerate(frame_times)]
    return "\n".join(lines) + "\n", records


class Rig:
    """The property's fixed inputs, kept out of a failing example's printout:
    the program, its cost table and one frame per class, in class order."""

    def __init__(self, model, program, cost):
        rng = np.random.default_rng(0)
        found = {}
        while len(found) < model.num_classes:
            x = one_frame(rng)
            found.setdefault(reference_infer(model, x).predicted, x)
        self.program, self.cost, self.names = program, cost, model.class_names
        self.pool = [found[c] for c in range(model.num_classes)]


@pytest.fixture(scope="module")
def rig(model, program, cost_121):
    return Rig(model, program, cost_121)


@st.composite
def loops(draw):
    duration = draw(st.integers(0, 50_000))
    times = sorted(draw(st.lists(st.integers(0, duration), max_size=20)))
    picks = draw(st.lists(st.integers(0, 2), min_size=len(times),
                          max_size=len(times)))
    slews = draw(st.lists(st.floats(0.0, 2000.0, exclude_min=True),
                          min_size=1, max_size=MAX_SERVOS))
    # each servo's own table: any subset of the class names, with angles
    # past both ends of 0..180 degrees
    tables = [draw(st.dictionaries(st.sampled_from(sorted(DEFAULT_CLASS_ANGLES)),
                                   st.floats(-90.0, 270.0)))
              for _ in slews]
    return duration, times, picks, slews, tables


# a frame captured on an edge; a frame captured as the one before it
# completes; two frames sharing one timestamp; a servo holding, for a class
# outside its table, the angle one step has reached; a step that lands on a
# target which angle + (target - angle) misses; two servos at -0.0 and 0.0
# on one edge, held there by a class outside both tables at a later edge
LOOP_EXAMPLES = [
    (7000, [PWM_PERIOD_US], [1], [600.0], [DEFAULT_CLASS_ANGLES]),
    (7000, [100, 100 + LATENCY_US], [0, 2], [600.0], [DEFAULT_CLASS_ANGLES]),
    (7000, [500, 500], [2, 0], [600.0, 30.0], [DEFAULT_CLASS_ANGLES, {"rock": 45.0}]),
    (15_000, [0, 3100], [0, 1], [600.0], [{"rock": 90.0}]),
    (15_000, [0, 3100], [2, 0], [100_000.0], [{"scissors": 180.0, "rock": 1e-17}]),
    (12_000, [0, 3100, 6200], [1, 0, 1], [600.0, 600.0],
     [{"rock": -0.0}, {"rock": 0.0}]),
]


def with_examples(cases):
    """@example(case=c) for each of `cases`."""
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return decorate


def loop_of(rig, case):
    """run_loop's timeline of one loops() case."""
    duration, times, picks, slews, tables = case
    frames = [(t, rig.pool[p]) for t, p in zip(times, picks)]
    servos = ServoBank([ServoModel(dict(table), s) for s, table in zip(slews, tables)])
    return run_loop(frames, rig.program, rig.cost, servos, duration)


def streamed_loop(rig):
    """5 servos at 1000 fps over 5 s: about 20k rows, several chunks. The
    timeline and its frame times, picks and slews."""
    duration = 5_000_000
    times = list(range(0, duration + 1, 1000))
    picks = np.random.default_rng(1).integers(0, 3, len(times)).tolist()
    slews = [100.0, 300.0, 600.0, 1200.0, 2400.0]
    frames = [(t, rig.pool[p]) for t, p in zip(times, picks)]
    tl = run_loop(frames, rig.program, rig.cost,
                  ServoBank([ServoModel(slew_limit_deg_per_s=s) for s in slews]),
                  duration)
    return tl, times, picks, slews


def written_by_csv_writer(events) -> str:
    """The timeline CSV of `events`, each row written by csv.writer."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t_us", "event", "servo_id", "class", "angle"])
    for e in events:
        w.writerow([e.t_us, e.kind,
                    "" if e.servo_id is None else e.servo_id,
                    "" if e.class_name is None else e.class_name,
                    "" if e.angle is None else f"{e.angle:.4f}"])
    return buf.getvalue()


class TestAgainstReference:
    @given(case=loops())
    @settings(max_examples=200, deadline=None)
    @with_examples(LOOP_EXAMPLES)
    def test_run_loop_matches_reference(self, rig, case):
        duration, times, picks, slews, tables = case
        tl = loop_of(rig, case)
        expected, records = reference_loop(
            times, [rig.names[p] for p in picks], slews, duration, tables)
        assert tl.to_csv() == expected
        assert reaction_latency(tl) == records
        # events and chunks() read one walk
        assert written_by_csv_writer(tl.events) == expected

        # a latch comes strictly after completion, at most one period later
        done = [t + LATENCY_US for t in times]
        for idx, edge in tl.frame_latched_at.items():
            assert done[idx] < edge <= done[idx] + PWM_PERIOD_US
        # the last writer wins: no later frame completes in the latch's period
        for idx, edge in tl.frame_latched_at.items():
            assert not any(edge - PWM_PERIOD_US <= done[j] < edge
                           for j in range(idx + 1, len(times)))
        # updates only on edges, each within the servo's slew step; a class
        # outside the servo's table leaves its angle exactly where it was
        edges = {e.t_us for e in tl.events if e.kind == "pwm_edge"}
        angles = [0.0] * len(slews)
        for e in tl.events:
            if e.kind == "angle_update":
                assert e.t_us in edges and e.t_us % PWM_PERIOD_US == 0
                step = slews[e.servo_id] * PWM_PERIOD_US / 1e6
                assert abs(e.angle - angles[e.servo_id]) <= step + 1e-9
                if e.class_name not in tables[e.servo_id]:
                    assert e.angle == angles[e.servo_id]
                angles[e.servo_id] = e.angle


class TestCsvQuoting:
    def test_class_names_quoted_as_csv_writer_does(self, model, cost_121):
        names = ("a,b", 'say"hi', "plain")
        quirky = BnnModel(model.kernels, model.fc_weights, names, model.geometry)
        program, _ = lower_model(quirky)
        pool = Rig(quirky, program, cost_121).pool
        frames = [(i * 1000, pool[i % len(pool)]) for i in range(9)]
        servos = ServoBank([ServoModel({n: 90.0 for n in names})])
        tl = run_loop(frames, program, cost_121, servos, 20_000)

        text = tl.to_csv()
        assert text == written_by_csv_writer(tl.events)
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert [r[3] for r in rows] == [e.class_name or "" for e in tl.events]
        assert set(names) <= {r[3] for r in rows}


class TestStreamedCsv:
    def test_a_long_loop_streams_the_reference_bytes(self, rig, tmp_path):
        tl, times, picks, slews = streamed_loop(rig)
        assert len(list(tl.chunks())) > 3
        path = tmp_path / "timeline.csv"
        atomic_write(path, tl.chunks())
        text = tl.to_csv()
        assert path.read_text() == text
        expected, _ = reference_loop(times, [rig.names[p] for p in picks], slews,
                                     tl.duration_us)
        assert text == expected

    def test_negative_zero_keeps_its_sign(self, rig):
        # -0.0 == 0.0, so the two must not share one formatted angle
        times, picks = [0, 6006, 12012], [0, 1, 0]
        tables = [{rig.names[0]: -0.0, rig.names[1]: 0.0}]
        frames = [(t, rig.pool[p]) for t, p in zip(times, picks)]
        tl = run_loop(frames, rig.program, rig.cost,
                      ServoBank([ServoModel(dict(tables[0]))]), 20_000)
        expected, _ = reference_loop(times, [rig.names[p] for p in picks], [600.0],
                                     20_000, tables)
        assert tl.to_csv() == expected
        assert ",-0.0000\n" in expected and ",0.0000\n" in expected

    def test_streaming_memory_does_not_grow_with_duration(self, rig):
        """run_loop and its streamed CSV over the same 500 frames peak alike
        in traced memory for 5 s and 50 s of loop; the rows the longer loop
        adds would take megabytes if they were kept."""
        frames = [(t, rig.pool[i % 3]) for i, t in enumerate(range(0, 500_000, 1000))]
        bank = ServoBank([ServoModel() for _ in range(MAX_SERVOS)])

        def peak(duration):
            tracemalloc.start()
            try:
                for _ in run_loop(frames, rig.program, rig.cost, bank,
                                  duration).chunks():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5_000_000)  # the program's first runs build what it keeps
        assert peak(50_000_000) <= peak(5_000_000) + 64 * 1024
