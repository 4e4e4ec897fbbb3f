"""Deterministic discrete-event simulation of the perception-action path.

Each captured frame runs the lowered program; the classification becomes a
target-angle command that latches into the PWM servo bank at the first edge
of the one PWM period, PWM_PERIOD_US, strictly after inference completes
(last writer wins within a period). At every edge each servo's angle slews
toward the latched target, bounded by that servo's slew limit. A ServoModel
is configuration only: run_loop owns the angles, all starting at 0 degrees.
Time is integer microseconds throughout.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .geometry import PlaneGeometry
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

    def target_for(self, class_name: str, angle: float) -> float:
        # commands outside the class table leave the servo where it is
        angle = self.class_angles.get(class_name, angle)
        return angle_from_pulse(pulse_width_us(angle))

    def step_toward(self, angle: float, target: float) -> float:
        """The angle after one PWM period of slewing from angle toward target."""
        max_step = self.slew_limit_deg_per_s * PWM_PERIOD_US / 1e6
        return angle + min(max(target - angle, -max_step), max_step)


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
             noise: NoiseModel | None = None,
             geometry: PlaneGeometry | None = None) -> ServoTimeline:
    """Simulate `duration_us` of the loop over timestamped binary frames,
    each one block of `geometry` (default: PlaneGeometry())."""
    if any(frames[i][0] > frames[i + 1][0] for i in range(len(frames) - 1)):
        raise ServoError("frame timestamps must be nondecreasing")
    if frames and frames[-1][0] > duration_us:
        raise ServoError("duration does not cover all frames")

    latency_us = int(round(estimate(program, cost).latency_us))

    # classify every frame up front; event times are pure arithmetic after
    results: list[tuple[int, int, str]] = []   # (inference_done, frame_idx, class)
    events: list[TimelineEvent] = []
    # identical frames classify identically, noise or not: every fresh state
    # seeds its own noise stream from NoiseModel.seed. Shape and dtype are in
    # the key so that a malformed frame with a valid frame's bytes is checked.
    cache: dict[tuple, str] = {}
    for idx, (t, img) in enumerate(frames):
        img = np.asarray(img)
        key = (img.shape, img.dtype, img.tobytes())
        cls = cache.get(key)
        if cls is None:
            state = make_input_state(img, geometry, mode, noise)
            _, sums = execute(program, state)
            cls = cache[key] = program.sum_labels[argmax(sums)]
        events.append(TimelineEvent(t, "frame", class_name=cls, frame_index=idx))
        done = t + latency_us
        events.append(TimelineEvent(done, "inference_done", class_name=cls,
                                    frame_index=idx))
        results.append((done, idx, cls))

    # per-edge latch: last writer wins among commands ready before the edge
    n_edges = duration_us // PWM_PERIOD_US + 1
    latch_at_edge: dict[int, tuple[int, str]] = {}
    frame_latched_at: dict[int, int] = {}
    for done, idx, cls in results:
        # the first edge strictly after completion
        edge = (done // PWM_PERIOD_US + 1) * PWM_PERIOD_US
        if edge <= duration_us:
            latch_at_edge[edge] = (idx, cls)
    for edge, (idx, cls) in latch_at_edge.items():
        frame_latched_at[idx] = edge
    dropped = [idx for _, idx, _ in results if idx not in frame_latched_at]

    angles = [0.0] * len(bank.servos)
    latched_class: str | None = None
    for e in range(n_edges):
        t_edge = e * PWM_PERIOD_US
        events.append(TimelineEvent(t_edge, "pwm_edge"))
        newly_latched = t_edge in latch_at_edge
        if newly_latched:
            latched_class = latch_at_edge[t_edge][1]
        if latched_class is None:
            continue
        for sid, servo in enumerate(bank.servos):
            target = servo.target_for(latched_class, angles[sid])
            if newly_latched or angles[sid] != target:
                angles[sid] = angle = servo.step_toward(angles[sid], target)
                events.append(TimelineEvent(t_edge, "angle_update", servo_id=sid,
                                            class_name=latched_class, angle=angle))

    order = {"frame": 0, "inference_done": 1, "pwm_edge": 2, "angle_update": 3}
    events.sort(key=lambda e: (e.t_us, order[e.kind],
                               -1 if e.servo_id is None else e.servo_id,
                               -1 if e.frame_index is None else e.frame_index))
    return ServoTimeline(events, latency_us, frame_latched_at, dropped)


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
