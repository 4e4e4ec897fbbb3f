"""Deterministic discrete-event simulation of the perception-action path.

Each captured frame runs the lowered program; the classification becomes a
target-angle command that latches into the PWM servo bank at the first edge
of the one PWM period, PWM_PERIOD_US, strictly after inference completes
(last writer wins within a period). At every edge each servo's angle slews
toward the latched target, bounded by that servo's slew limit (a number
> 0 deg/s; infinite lands on the target at once). A ServoModel is
read-only configuration: run_loop owns the angles, all starting at 0
degrees. A servo heads for a class's table angle (finite) clamped to
0..180 degrees, and holds its angle for a class outside its table. Time is
integer microseconds throughout.

run_loop classifies each frame object once per call, by its identity, and
finds every frame's latch edge or drop in one pass. Its timeline keeps
O(frames) state. One walk over the PWM edges holds the ordering, latch and
slew rules; it hands out each edge's captures as an index range into their
time order and memoises each edge's move. chunks() formats it straight to
CSV text a few thousand rows at a time: every capture row once, up front,
and each edge's rows as the edge time before the row tails of its move,
formatted once and kept, with the memo, for one chunk. events builds the
walk as TimelineEvent named tuples when read.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

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


@dataclass(frozen=True)
class ServoModel:
    """One servo's configuration, checked once and read-only after that:
    class_angles is held as a read-only copy of the mapping passed in."""

    class_angles: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_ANGLES))
    slew_limit_deg_per_s: float = 600.0

    def __post_init__(self):
        object.__setattr__(self, "class_angles",
                           MappingProxyType(dict(self.class_angles)))
        slew = self.slew_limit_deg_per_s
        if isinstance(slew, bool) or not isinstance(slew, (int, float)) or not slew > 0:
            raise ServoError(f"slew limit must be a number > 0 deg/s, got {slew!r}")
        for name, angle in self.class_angles.items():
            if (isinstance(angle, bool) or not isinstance(angle, (int, float))
                    or not -math.inf < angle < math.inf):
                raise ServoError(f"class angle for {name!r} must be a finite "
                                 f"number, got {angle!r}")

    @property
    def max_step_deg(self) -> float:
        """The farthest the servo turns in one PWM period."""
        return self.slew_limit_deg_per_s * PWM_PERIOD_US / 1e6


@dataclass(frozen=True)
class ServoBank:
    """1..MAX_SERVOS servos, held as a tuple of the sequence passed in."""

    servos: tuple[ServoModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "servos", tuple(self.servos))
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

    def _captures(self) -> tuple[list[int], list[int]]:
        """The frame and inference_done captures in time order, frames first
        on ties, as indices into frame_times + done_times, and their times."""
        times = self.frame_times + self.done_times
        # a stable sort of two sorted runs merges them
        order = sorted(range(len(times)), key=times.__getitem__)
        return order, [times[k] for k in order]

    def _walk(self, capture_times: list[int], memo: dict):
        """(lo, hi, t_edge, latched class, (servo id, angle) updates) per
        edge, where captures lo..hi-1 come up to the edge, then (lo, the
        capture count, None, None, ()) for those after the last edge. `memo`
        keeps each edge's move, its new angles and updates, by (angles,
        latched class, latching); the caller may clear it between edges."""
        latch = {edge: idx for idx, edge in self.frame_latched_at.items()}
        steps, tables = self.steps, self.tables
        angles = (0.0,) * len(steps)
        lo, latched = 0, None
        for t_edge in range(0, self.duration_us + 1, PWM_PERIOD_US):
            hi = bisect_right(capture_times, t_edge, lo)
            idx = latch.get(t_edge)
            if idx is not None:
                latched = self.frame_classes[idx]
            updates = ()
            if latched is not None:
                key = angles, latched, idx is not None
                move = memo.get(key)
                if move is None:
                    moved, updates = list(angles), []
                    for sid, angle in enumerate(angles):
                        target = tables[sid].get(latched, angle)
                        if idx is not None or angle != target:
                            # land on the target when it is within one step
                            step = steps[sid]
                            if abs(target - angle) <= step:
                                angle = target
                            else:
                                angle += step if target > angle else -step
                            moved[sid] = angle
                            updates.append((sid, angle))
                    move = tuple(moved), updates
                    # -0.0 == 0.0 and the two hash alike: no zero in a key
                    if 0.0 not in angles:
                        memo[key] = move
                angles, updates = move
            yield lo, hi, t_edge, latched, updates
            lo = hi
        yield lo, len(capture_times), None, None, ()

    def chunks(self):
        """The CSV `t_us,event,servo_id,class,angle` in about 4k-row pieces."""
        classes = self.frame_classes
        quoted = {c: _csv_field(c) for c in set(classes)}
        frame = {c: f",frame,,{q},\n" for c, q in quoted.items()}
        done = {c: f",inference_done,,{q},\n" for c, q in quoted.items()}
        tails = [frame[c] for c in classes] + [done[c] for c in classes]
        order, capture_times = self._captures()
        captures = [f"{t}{tails[k]}" for t, k in zip(capture_times, order)]
        middles = {c: [f",angle_update,{sid},{q}," for sid in range(len(self.steps))]
                   for c, q in quoted.items()}
        rows, count = ["t_us,event,servo_id,class,angle\n"], 1
        # An edge's rows are its time before each of its rows' tails. The
        # tails are kept per chunk by the identity of the walk's updates,
        # the same object whenever the memo repeats a move; each entry holds
        # its updates, so no other object can take that id meanwhile.
        memo, tails_of = {}, {}
        for lo, hi, t_edge, latched, updates in self._walk(capture_times, memo):
            rows += captures[lo:hi]
            if t_edge is None:
                break
            entry = tails_of.get(id(updates))
            if entry is None:
                entry = tails_of[id(updates)] = updates, [",pwm_edge,,,\n"] + [
                    f"{middles[latched][sid]}{angle:.4f}\n" for sid, angle in updates]
            head = str(t_edge)
            rows.append(head + head.join(entry[1]))
            count += hi - lo + 1 + len(updates)
            if count >= 4096:
                yield "".join(rows)
                rows, count = [], 0
                memo.clear()
                tails_of.clear()
        yield "".join(rows)

    def to_csv(self) -> str:
        return "".join(self.chunks())

    @property
    def events(self) -> list[TimelineEvent]:
        """The timeline's rows, built on each read."""
        n, classes = len(self.frame_times), self.frame_classes
        order, capture_times = self._captures()
        events = []
        for lo, hi, t_edge, latched, updates in self._walk(capture_times, {}):
            events += [TimelineEvent(t, "frame" if k < n else "inference_done",
                                     None, classes[k % n], None, k % n)
                       for t, k in zip(capture_times[lo:hi], order[lo:hi])]
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
    if sorted(times) != times:
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

    # A command latches at the first edge strictly after its completion,
    # and the last writer wins among the commands ready before an edge: a
    # frame is dropped when the next one latches at its edge too.
    edges = [(done // PWM_PERIOD_US + 1) * PWM_PERIOD_US for done in dones]
    frame_latched_at: dict[int, int] = {}   # frame index -> latch edge time
    dropped: list[int] = []
    for idx, (edge, following) in enumerate(zip(edges, edges[1:] + [None])):
        if edge != following and edge <= duration_us:
            frame_latched_at[idx] = edge
        else:
            dropped.append(idx)
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
    latched_at = timeline.frame_latched_at.get
    new, Record = tuple.__new__, ReactionRecord
    return [new(Record, (idx, t, (edge := latched_at(idx)) is not None,
                         None if edge is None else edge - t))
            for idx, t in enumerate(timeline.frame_times)]
