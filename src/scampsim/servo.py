"""Deterministic discrete-event simulation of the perception-action path.

Each captured frame runs the lowered program; the classification becomes a
target-angle command that latches into the PWM servo at the first period
boundary strictly after inference completes (last writer wins within a
period). Servo angles slew toward the latched target at every PWM edge,
bounded by the slew limit. Time is integer microseconds throughout.
"""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .lowering import make_input_state
from .model import argmax
from .planes import NoiseModel
from .program import CostModel, PpaProgram, estimate, execute

PWM_PERIOD_US = 3003          # closest integer microseconds to 1/333 Hz
MAX_SERVOS = 5

PULSE_MIN_US = 1000.0         # maps to 0 degrees
PULSE_MAX_US = 2000.0         # maps to 180 degrees

DEFAULT_CLASS_ANGLES = {"rock": 0.0, "paper": 90.0, "scissors": 180.0}


class ServoError(ValueError):
    pass


def pulse_width_us(angle_deg: float) -> float:
    """Affine map 0..180 deg -> 1000..2000 us, clamped to the valid range."""
    w = PULSE_MIN_US + (PULSE_MAX_US - PULSE_MIN_US) * angle_deg / 180.0
    return min(max(w, PULSE_MIN_US), PULSE_MAX_US)


def angle_from_pulse(width_us: float) -> float:
    return 180.0 * (width_us - PULSE_MIN_US) / (PULSE_MAX_US - PULSE_MIN_US)


@dataclass
class ServoModel:
    class_angles: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_ANGLES))
    slew_limit_deg_per_s: float = 600.0
    current_angle: float = 0.0
    pwm_period_us: int = PWM_PERIOD_US

    def target_for(self, class_name: str) -> float:
        # commands outside the class table leave the servo where it is
        angle = self.class_angles.get(class_name, self.current_angle)
        return angle_from_pulse(pulse_width_us(angle))

    def step_toward(self, target: float) -> float:
        """Advance one PWM period toward target under the slew limit."""
        max_step = self.slew_limit_deg_per_s * self.pwm_period_us / 1e6
        delta = target - self.current_angle
        delta = min(max(delta, -max_step), max_step)
        self.current_angle += delta
        return self.current_angle


@dataclass
class ServoBank:
    servos: list[ServoModel]

    def __post_init__(self):
        if not 1 <= len(self.servos) <= MAX_SERVOS:
            raise ServoError(
                f"servo bank must hold 1..{MAX_SERVOS} servos, got {len(self.servos)}"
            )


@dataclass
class TimelineEvent:
    t_us: int
    kind: str                     # frame | inference_done | pwm_edge | angle_update
    servo_id: int | None = None
    class_name: str | None = None
    angle: float | None = None
    frame_index: int | None = None


@dataclass
class ServoTimeline:
    events: list[TimelineEvent]
    inference_latency_us: int
    pwm_period_us: int
    frame_latched_at: dict[int, int]      # frame index -> latch edge time
    dropped_frames: list[int]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t_us", "event", "servo_id", "class", "angle"])
        for e in self.events:
            w.writerow([
                e.t_us, e.kind,
                "" if e.servo_id is None else e.servo_id,
                "" if e.class_name is None else e.class_name,
                "" if e.angle is None else f"{e.angle:.4f}",
            ])
        return buf.getvalue()


def run_loop(frames: list[tuple[int, np.ndarray]], program: PpaProgram,
             cost: CostModel, bank: ServoBank, duration_us: int,
             mode: str = "ideal",
             noise: NoiseModel | None = None) -> ServoTimeline:
    """Simulate `duration_us` of the loop over timestamped binary frames."""
    if any(frames[i][0] > frames[i + 1][0] for i in range(len(frames) - 1)):
        raise ServoError("frame timestamps must be nondecreasing")
    if frames and frames[-1][0] > duration_us:
        raise ServoError("duration does not cover all frames")

    latency_us = int(round(estimate(program, cost).latency_us))
    bank = copy.deepcopy(bank)  # the simulation owns its servo state
    period = bank.servos[0].pwm_period_us
    noise = noise or NoiseModel()

    # classify every frame up front; event times are pure arithmetic after
    results: list[tuple[int, int, str]] = []   # (inference_done, frame_idx, class)
    events: list[TimelineEvent] = []
    # repeated identical frames classify identically when noise is off
    cache: dict[bytes, str] = {}
    for idx, (t, img) in enumerate(frames):
        img = np.asarray(img)
        key = img.tobytes() if noise.kind == "none" else None
        if key is not None and key in cache:
            cls = cache[key]
        else:
            state = make_input_state(img, mode=mode, noise=noise)
            _, sums = execute(program, state)
            cls = program.sum_labels[argmax(sums)]
            if key is not None:
                cache[key] = cls
        events.append(TimelineEvent(t, "frame", class_name=cls, frame_index=idx))
        done = t + latency_us
        events.append(TimelineEvent(done, "inference_done", class_name=cls,
                                    frame_index=idx))
        results.append((done, idx, cls))

    # per-edge latch: last writer wins among commands ready before the edge
    n_edges = duration_us // period + 1
    latch_at_edge: dict[int, tuple[int, str]] = {}
    frame_latched_at: dict[int, int] = {}
    for done, idx, cls in results:
        edge = (done // period + 1) * period   # strictly after completion
        if edge <= duration_us:
            latch_at_edge[edge] = (idx, cls)
    for edge, (idx, cls) in latch_at_edge.items():
        frame_latched_at[idx] = edge
    dropped = [idx for _, idx, _ in results if idx not in frame_latched_at]

    latched_class: str | None = None
    for e in range(n_edges):
        t_edge = e * period
        events.append(TimelineEvent(t_edge, "pwm_edge"))
        newly_latched = t_edge in latch_at_edge
        if newly_latched:
            latched_class = latch_at_edge[t_edge][1]
        if latched_class is None:
            continue
        for sid, servo in enumerate(bank.servos):
            target = servo.target_for(latched_class)
            moved = newly_latched or servo.current_angle != target
            if moved:
                angle = servo.step_toward(target)
                events.append(TimelineEvent(t_edge, "angle_update", servo_id=sid,
                                            class_name=latched_class, angle=angle))

    order = {"frame": 0, "inference_done": 1, "pwm_edge": 2, "angle_update": 3}
    events.sort(key=lambda e: (e.t_us, order[e.kind],
                               -1 if e.servo_id is None else e.servo_id,
                               -1 if e.frame_index is None else e.frame_index))
    return ServoTimeline(events, latency_us, period, frame_latched_at, dropped)


@dataclass
class ReactionRecord:
    frame_index: int
    frame_t_us: int
    latched: bool
    reaction_us: int | None       # None for dropped frames


def reaction_latency(timeline: ServoTimeline) -> list[ReactionRecord]:
    """Per-frame time from capture to the first angle update reflecting it."""
    frame_times = {e.frame_index: e.t_us for e in timeline.events
                   if e.kind == "frame"}
    records = []
    for idx in sorted(frame_times):
        t = frame_times[idx]
        if idx in timeline.frame_latched_at:
            records.append(ReactionRecord(
                idx, t, True, timeline.frame_latched_at[idx] - t))
        else:
            records.append(ReactionRecord(idx, t, False, None))
    return records
