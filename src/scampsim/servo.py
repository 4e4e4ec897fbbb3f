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

run_loop classifies each frame object once per call, by its identity. Its
timeline keeps O(frames) state, and one walk over the PWM edges holds the
ordering, latch and slew rules: chunks() formats it straight to CSV text a
few thousand rows at a time, and events builds it as TimelineEvent named
tuples when read.
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
    inference_latency_us: int
    frame_latched_at: dict[int, int]      # frame index -> latch edge time
    dropped_frames: list[int]
    frame_times: list[int]                # capture time of each frame, by index
    frame_classes: list[str]
    done_times: list[int]                 # inference_done time of each frame
    steps: list[float]                    # each servo's max_step_deg
    tables: list[dict[str, float]]        # each servo's angles, clamped
    duration_us: int

    def _walk(self):
        """(captures, t_edge, latched class, (servo id, angle) updates) per
        edge, then (the captures after the last edge, None, None, ()). The
        captures index frame_times + done_times, frames first on ties."""
        times = self.frame_times + self.done_times
        # a stable sort of two sorted runs merges them
        order = sorted(range(len(times)), key=times.__getitem__)
        ordered_times = [times[k] for k in order]
        latch = {edge: idx for idx, edge in self.frame_latched_at.items()}
        steps, tables = self.steps, self.tables
        angles = [0.0] * len(steps)
        emitted = 0
        latched = None
        for t_edge in range(0, self.duration_us + 1, PWM_PERIOD_US):
            upto = bisect_right(ordered_times, t_edge, emitted)
            captures, emitted = order[emitted:upto], upto
            idx = latch.get(t_edge)
            if idx is not None:
                latched = self.frame_classes[idx]
            updates = []
            if latched is not None:
                for sid, angle in enumerate(angles):
                    target = tables[sid].get(latched, angle)
                    if idx is not None or angle != target:
                        # land on the target when it is within one step
                        step = steps[sid]
                        if abs(target - angle) <= step:
                            angle = target
                        else:
                            angle += step if target > angle else -step
                        angles[sid] = angle
                        updates.append((sid, angle))
            yield captures, t_edge, latched, updates
        yield order[emitted:], None, None, ()

    def chunks(self):
        """The CSV `t_us,event,servo_id,class,angle` in about 4k-row pieces."""
        classes = self.frame_classes
        quoted = {c: _csv_field(c) for c in set(classes)}
        frame = {c: f",frame,,{q},\n" for c, q in quoted.items()}
        done = {c: f",inference_done,,{q},\n" for c, q in quoted.items()}
        times = self.frame_times + self.done_times
        tails = [frame[c] for c in classes] + [done[c] for c in classes]
        rows = ["t_us,event,servo_id,class,angle\n"]
        append = rows.append
        # each angle formatted once per chunk; a zero each time, as -0.0 == 0.0
        angle_text = {}
        for captures, t_edge, latched, updates in self._walk():
            for k in captures:
                append(f"{times[k]}{tails[k]}")
            if t_edge is None:
                break
            append(f"{t_edge},pwm_edge,,,\n")
            if updates:
                q = quoted[latched]
                for sid, angle in updates:
                    text = angle_text.get(angle)
                    if text is None:
                        text = f"{angle:.4f}\n"
                        if angle:
                            angle_text[angle] = text
                    append(f"{t_edge},angle_update,{sid},{q},{text}")
            if len(rows) >= 4096:
                yield "".join(rows)
                rows = []
                append = rows.append
                angle_text.clear()
        yield "".join(rows)

    def to_csv(self) -> str:
        return "".join(self.chunks())

    @property
    def events(self) -> list[TimelineEvent]:
        """The timeline's rows, built on each read."""
        n, times = len(self.frame_times), self.frame_times + self.done_times
        events = []
        for captures, t_edge, latched, updates in self._walk():
            events += [TimelineEvent(times[k], "frame" if k < n else "inference_done",
                                     None, self.frame_classes[k % n], None, k % n)
                       for k in captures]
            if t_edge is not None:
                events.append(TimelineEvent(t_edge, "pwm_edge"))
                events += [TimelineEvent(t_edge, "angle_update", sid, latched, angle)
                           for sid, angle in updates]
        return events


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
    # A frame object classifies once, noise or not: every fresh state seeds
    # its own noise stream from NoiseModel.seed. `frames` keeps every array
    # alive, so an id seen twice within this call is the same object.
    by_id: dict[int, str] = {}
    classes: list[str] = []
    for _, img in frames:
        cls = by_id.get(id(img))
        if cls is None:
            _, sums = execute(program, make_input_state(img, geometry, mode, noise))
            cls = by_id[id(img)] = program.sum_labels[argmax(sums)]
        classes.append(cls)
    dones = [t + latency_us for t in times]

    # per-edge latch: last writer wins among commands ready before the edge
    latch_at_edge: dict[int, int] = {}      # edge time -> frame index
    for idx, done in enumerate(dones):
        # the first edge strictly after completion
        edge = (done // PWM_PERIOD_US + 1) * PWM_PERIOD_US
        if edge <= duration_us:
            latch_at_edge[edge] = idx
    frame_latched_at = {idx: edge for edge, idx in latch_at_edge.items()}
    dropped = [idx for idx in range(len(times)) if idx not in frame_latched_at]
    return ServoTimeline(
        latency_us, frame_latched_at, dropped, times, classes, dones,
        [s.max_step_deg for s in bank.servos],
        [{c: min(max(a, 0.0), 180.0) for c, a in s.class_angles.items()}
         for s in bank.servos], duration_us)


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
