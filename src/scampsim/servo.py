"""Deterministic discrete-event simulation of the perception-action path.

Each captured frame runs the lowered program; the classification becomes a
target-angle command that latches into the PWM servo bank at the first edge
of the one PWM period, PWM_PERIOD_US, strictly after inference completes
(last writer wins within a period). At every edge each servo's angle slews
toward the latched target, bounded by that servo's slew limit. A ServoModel
is configuration only: run_loop owns the angles, all starting at 0 degrees.
A servo heads for a class's table angle clamped to 0..180 degrees, and holds
its angle for a class outside its table. Time is integer microseconds
throughout.

run_loop classifies each distinct frame once per call: a memo keyed by the
frame object's identity sits in front of a cache keyed by the frame's shape,
dtype and bytes. It then emits the timeline already in order, with no sort:
the frame and inference_done events up to each edge (frames first on ties),
the edge, and the edge's angle updates by servo id. Events and reaction
records are immutable named tuples, TimelineEvent and ReactionRecord. The
timeline keeps each frame's capture time, so reaction_latency reads them
without scanning the events.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import PlaneGeometry
from .lowering import make_input_state
from .model import argmax
from .planes import NoiseModel
from .program import CostModel, PpaProgram, estimate, execute

PWM_PERIOD_US = 3003          # closest integer microseconds to 1/333 Hz
MAX_SERVOS = 5

DEFAULT_CLASS_ANGLES = {"rock": 0.0, "paper": 90.0, "scissors": 180.0}


class ServoError(ValueError):
    pass


@dataclass
class ServoModel:
    class_angles: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_ANGLES))
    slew_limit_deg_per_s: float = 600.0

    @property
    def max_step_deg(self) -> float:
        """The farthest the servo turns in one PWM period."""
        return self.slew_limit_deg_per_s * PWM_PERIOD_US / 1e6


@dataclass
class ServoBank:
    servos: list[ServoModel]

    def __post_init__(self):
        if not 1 <= len(self.servos) <= MAX_SERVOS:
            raise ServoError(
                f"servo bank must hold 1..{MAX_SERVOS} servos, got {len(self.servos)}"
            )


class TimelineEvent(NamedTuple):
    t_us: int
    kind: str                     # frame | inference_done | pwm_edge | angle_update
    servo_id: int | None = None
    class_name: str | None = None
    angle: float | None = None
    frame_index: int | None = None


def _csv_field(name: str | None) -> str:
    """One CSV field as csv.writer quotes it inside a row."""
    if not name:
        return ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([name])
    return buf.getvalue()[:-1]


@dataclass
class ServoTimeline:
    events: list[TimelineEvent]
    inference_latency_us: int
    frame_latched_at: dict[int, int]      # frame index -> latch edge time
    dropped_frames: list[int]
    frame_times: list[int]                # capture time of each frame, by index

    def to_csv(self) -> str:
        events = self.events
        quoted = {c: _csv_field(c) for c in {e.class_name for e in events}}
        rows = ["t_us,event,servo_id,class,angle\n"]
        rows += [f"{t},{kind},{'' if sid is None else sid},{quoted[c]},"
                 f"{'' if angle is None else f'{angle:.4f}'}\n"
                 for t, kind, sid, c, angle, _ in events]
        return "".join(rows)


def run_loop(frames: list[tuple[int, np.ndarray]], program: PpaProgram,
             cost: CostModel, bank: ServoBank, duration_us: int,
             mode: str = "ideal",
             noise: NoiseModel | None = None,
             geometry: PlaneGeometry | None = None) -> ServoTimeline:
    """Simulate `duration_us` of the loop over timestamped binary frames,
    each one block of `geometry` (default: PlaneGeometry())."""
    if duration_us < 0:
        raise ServoError(f"duration must be >= 0 us, got {duration_us}")
    times = [t for t, _ in frames]
    if any(a > b for a, b in zip(times, times[1:])):
        raise ServoError("frame timestamps must be nondecreasing")
    if times and times[-1] > duration_us:
        raise ServoError("duration does not cover all frames")

    latency_us = int(round(estimate(program, cost).latency_us))

    # classify every frame up front; event times are pure arithmetic after.
    # Identical frames classify identically, noise or not: every fresh state
    # seeds its own noise stream from NoiseModel.seed. Shape and dtype are in
    # the content key so that a malformed frame with a valid frame's bytes is
    # checked. `frames` keeps every array alive, so an id seen twice within
    # this call is the same unchanged object and skips the content key.
    by_id: dict[int, str] = {}
    by_content: dict[tuple, str] = {}
    classes: list[str] = []
    for _, img in frames:
        cls = by_id.get(id(img))
        if cls is None:
            x = np.asarray(img)
            key = (x.shape, x.dtype, x.tobytes())
            cls = by_content.get(key)
            if cls is None:
                _, sums = execute(program, make_input_state(x, geometry, mode, noise))
                cls = by_content[key] = program.sum_labels[argmax(sums)]
            by_id[id(img)] = cls
        classes.append(cls)
    dones = [t + latency_us for t in times]

    # per-edge latch: last writer wins among commands ready before the edge
    latch_at_edge: dict[int, int] = {}      # edge time -> frame index
    frame_latched_at: dict[int, int] = {}
    for idx, done in enumerate(dones):
        # the first edge strictly after completion
        edge = (done // PWM_PERIOD_US + 1) * PWM_PERIOD_US
        if edge <= duration_us:
            latch_at_edge[edge] = idx
    for edge, idx in latch_at_edge.items():
        frame_latched_at[idx] = edge
    dropped = [idx for idx in range(len(times)) if idx not in frame_latched_at]

    # The captures in timeline order: a two-pointer merge of the frame and
    # inference_done rows, frames first on ties (no frame completes before
    # its capture), each stream in frame order. Events are built with
    # tuple.__new__, which skips the NamedTuple's keyword-taking __new__.
    new, Event = tuple.__new__, TimelineEvent
    captures: list[TimelineEvent] = []
    n = len(times)
    i = j = 0
    while j < n:
        if i < n and times[i] <= dones[j]:
            captures.append(new(Event, (times[i], "frame", None, classes[i],
                                        None, i)))
            i += 1
        else:
            captures.append(new(Event, (dones[j], "inference_done", None,
                                        classes[j], None, j)))
            j += 1
    capture_times = [e.t_us for e in captures]

    # Each edge follows the captures at or before it and precedes its angle
    # updates, which go by servo id; the captures after the last edge close.
    servos = bank.servos
    steps = [s.max_step_deg for s in servos]
    tabled = [{c: min(max(a, 0.0), 180.0) for c, a in s.class_angles.items()}
              for s in servos]
    angles = [0.0] * len(servos)
    events: list[TimelineEvent] = []
    append = events.append
    emitted = 0
    latched_class: str | None = None
    for t_edge in range(0, duration_us + 1, PWM_PERIOD_US):
        upto = bisect_right(capture_times, t_edge, emitted)
        events += captures[emitted:upto]
        emitted = upto
        append(new(Event, (t_edge, "pwm_edge", None, None, None, None)))
        idx = latch_at_edge.get(t_edge)
        if idx is not None:
            latched_class = classes[idx]
        elif latched_class is None:
            continue
        for sid, angle in enumerate(angles):
            target = tabled[sid].get(latched_class, angle)
            if idx is not None or angle != target:
                # land on the target when it is within one step
                step = steps[sid]
                if abs(target - angle) <= step:
                    angle = target
                else:
                    angle += step if target > angle else -step
                angles[sid] = angle
                append(new(Event, (t_edge, "angle_update", sid, latched_class,
                                   angle, None)))
    events += captures[emitted:]
    return ServoTimeline(events, latency_us, frame_latched_at, dropped, times)


class ReactionRecord(NamedTuple):
    frame_index: int
    frame_t_us: int
    latched: bool
    reaction_us: int | None       # None for dropped frames


def reaction_latency(timeline: ServoTimeline) -> list[ReactionRecord]:
    """Per-frame time from capture to the first angle update reflecting it."""
    latched_at = timeline.frame_latched_at
    new, Record = tuple.__new__, ReactionRecord
    records = []
    for idx, t in enumerate(timeline.frame_times):
        edge = latched_at.get(idx)
        records.append(new(Record, (idx, t, edge is not None,
                                    None if edge is None else edge - t)))
    return records
