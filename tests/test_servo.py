import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scampsim import servo
from scampsim.lowering import LoweringError, lower_model, make_input_state
from scampsim.model import argmax, random_model, reference_infer
from scampsim.planes import NoiseModel
from scampsim.program import CostModel, execute
from scampsim.servo import (DEFAULT_CLASS_ANGLES, MAX_SERVOS, PWM_PERIOD_US,
                            ReactionRecord, ServoBank, ServoError, ServoModel,
                            angle_from_pulse, pulse_width_us, reaction_latency,
                            run_loop)


@pytest.fixture(scope="module")
def model():
    return random_model(seed=0)


@pytest.fixture(scope="module")
def program(model):
    prog, _ = lower_model(model)
    return prog


@pytest.fixture(scope="module")
def cost_121(program):
    # uniform per-op cost giving exactly integer-rounded 121 us latency
    return CostModel({op: 121.0 / len(program) for op in
                      {i.opcode for i in program.instructions}})


def one_frame(rng=None):
    rng = rng or np.random.default_rng(0)
    return rng.integers(0, 2, size=(64, 64)).astype(np.uint8)


def bank():
    return ServoBank([ServoModel()])


class TestPulseMapping:
    def test_affine_endpoints(self):
        assert pulse_width_us(0.0) == 1000.0
        assert pulse_width_us(180.0) == 2000.0
        assert pulse_width_us(90.0) == 1500.0

    def test_clamped_to_valid_range(self):
        assert pulse_width_us(-45.0) == 1000.0
        assert pulse_width_us(400.0) == 2000.0
        assert angle_from_pulse(pulse_width_us(270.0)) == 180.0


class TestServoBank:
    def test_five_accepted(self):
        ServoBank([ServoModel() for _ in range(MAX_SERVOS)])

    def test_six_rejected(self):
        with pytest.raises(ServoError):
            ServoBank([ServoModel() for _ in range(6)])

    def test_zero_rejected(self):
        with pytest.raises(ServoError):
            ServoBank([])


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

    def test_noisy_frames_execute_once_per_distinct_frame(
            self, program, cost_121, model, monkeypatch, rng):
        noise = NoiseModel("gaussian", 50.0, 3)
        pool = [one_frame(rng), one_frame(rng)]
        picks = rng.integers(0, 2, size=20)
        frames = [(i * 1000, pool[p]) for i, p in enumerate(picks)]
        calls = []

        def counting_execute(*args, **kwargs):
            calls.append(1)
            return execute(*args, **kwargs)

        monkeypatch.setattr(servo, "execute", counting_execute)
        tl = run_loop(frames, program, cost_121, bank(), 30_000, noise=noise)
        assert len(calls) == 2
        # the same loop with every frame classified afresh, no cache
        classes = []
        for _, x in frames:
            _, sums = execute(program, make_input_state(x, noise=noise))
            classes.append(model.class_names[argmax(sums)])
        csv, _ = reference_loop([t for t, _ in frames], classes, [600.0], 30_000)
        assert tl.to_csv() == csv


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


def reference_loop(frame_times, classes, slews, duration_us):
    """The loop stepped PWM edge by edge in plain Python.

    Frame i, captured at frame_times[i], completes LATENCY_US later with class
    classes[i]. Each edge latches the last frame completing in the period
    before it; servo s then slews toward the class angle at slews[s] deg/s.
    Returns the timeline CSV and the reaction records run_loop must give.
    """
    period = PWM_PERIOD_US
    n = len(frame_times)
    done = [t + LATENCY_US for t in frame_times]
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
            target = DEFAULT_CLASS_ANGLES[command]
            for sid, slew in enumerate(slews):
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
    return duration, times, picks, slews


class TestAgainstReference:
    @given(case=loops())
    @settings(max_examples=200, deadline=None)
    def test_run_loop_matches_reference(self, rig, case):
        duration, times, picks, slews = case
        frames = [(t, rig.pool[p]) for t, p in zip(times, picks)]
        servos = ServoBank([ServoModel(slew_limit_deg_per_s=s) for s in slews])
        tl = run_loop(frames, rig.program, rig.cost, servos, duration)
        csv, records = reference_loop(
            times, [rig.names[p] for p in picks], slews, duration)
        assert tl.to_csv() == csv
        assert reaction_latency(tl) == records

        # a latch comes strictly after completion, at most one period later
        done = [t + LATENCY_US for t in times]
        for idx, edge in tl.frame_latched_at.items():
            assert done[idx] < edge <= done[idx] + PWM_PERIOD_US
        # the last writer wins: no later frame completes in the latch's period
        for idx, edge in tl.frame_latched_at.items():
            assert not any(edge - PWM_PERIOD_US <= done[j] < edge
                           for j in range(idx + 1, len(times)))
        # updates only on edges, each within the servo's slew step
        edges = {e.t_us for e in tl.events if e.kind == "pwm_edge"}
        angles = [0.0] * len(slews)
        for e in tl.events:
            if e.kind == "angle_update":
                assert e.t_us in edges and e.t_us % PWM_PERIOD_US == 0
                step = slews[e.servo_id] * PWM_PERIOD_US / 1e6
                assert abs(e.angle - angles[e.servo_id]) <= step + 1e-9
                angles[e.servo_id] = e.angle
