"""Compile a BnnModel into a plane-instruction program.

The lowered program expects the binary input image in block (0,0) of analog
register A (see make_input_state); it replicates the image into
every block, convolves all kernels simultaneously via whole-plane shifts and
per-tap masked accumulates, zeroes the contaminated block borders, applies
ReLU and the replicating 2x2 max-pool, and finally emits one global sum per
class. Class sums from execution equal 4x the dense reference scores because
the pooled plane keeps each maximum replicated over its 2x2 cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import PlaneGeometry, is_binary
from .model import BnnModel
from .planes import ArrayState, NoiseModel, read_only
from .program import Instruction, PpaProgram

# Register roles. A stages the input and doubles as the conv row register
# once the replicated image lives in B; E is kept all-zero after the
# initial clear so masked copies from it implement selective zeroing.
REG_INPUT = "A"
REG_REPLICATED = "B"
REG_ACC = "C"
REG_TAP = "D"
REG_ZERO = "E"
REG_FC = "F"

MASK_POS = "R1"
MASK_NEG = "R2"
MASK_BORDER = "R3"
MASK_COL_EVEN = "R4"
MASK_COL_ODD = "R5"
MASK_ROW_EVEN = "R6"
MASK_ROW_ODD = "R7"
MASK_RELU = "R8"
MASK_FC = "R9"

POOL_REPLICATION = 4  # each pooled maximum appears in all 4 cells of its 2x2 block
GRAY_THRESHOLD = 127  # a captured gray level above this reads as 1


class LoweringError(ValueError):
    pass


@dataclass
class LoweringPlan:
    registers: dict[str, str]
    instruction_counts: dict[str, int]
    stage_ranges: dict[str, tuple[int, int]]
    conv_budget: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "registers": self.registers,
            "instruction_counts": self.instruction_counts,
            "stage_ranges": {k: list(v) for k, v in self.stage_ranges.items()},
            "conv_budget": self.conv_budget,
        }, indent=2) + "\n"


# -- host-side input preparation -----------------------------------------


def prepare_input(img: np.ndarray, block_size: int = 64) -> np.ndarray:
    """Threshold a grayscale image at GRAY_THRESHOLD and majority-downsample
    it to one block.

    The image must be square with side a multiple of block_size. Each s x s
    cell becomes 1 iff strictly more than half its thresholded pixels are 1;
    an already block-sized binary image passes through unchanged.
    """
    img = np.asarray(img)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise LoweringError(f"expected a square grayscale image, got {img.shape}")
    side = img.shape[0]
    if side % block_size != 0:
        raise LoweringError(
            f"image side {side} is not a multiple of block size {block_size}"
        )
    s = side // block_size
    count = np.min_scalar_type(s * s)  # holds every cell's count, up to s^2
    bits = img > GRAY_THRESHOLD
    # add a cell's s rows, then its s columns, as strided slices: a
    # reduction over a tiny inner axis is slow
    rows = bits[::s].astype(count)
    for i in range(1, s):
        rows += bits[i::s]
    cells = rows[:, ::s].copy()
    for j in range(1, s):
        cells += rows[:, j::s]
    return (cells > s * s // 2).astype(np.uint8)  # 2 * count > s^2


def make_input_state(image: np.ndarray, geometry: PlaneGeometry | None = None,
                     mode: str = "ideal",
                     noise: NoiseModel | None = None) -> ArrayState:
    """Fresh ArrayState with the binary input in block (0,0) of REG_INPUT.

    This is the host's side of the contract: prepare_input has thresholded
    and majority-downsampled the captured image to one block; replication to
    the remaining blocks happens in the instruction stream.
    """
    geometry = geometry or PlaneGeometry()
    image = np.asarray(image)
    bs = geometry.block_size
    if image.shape != (bs, bs):
        raise LoweringError(f"input must be {bs}x{bs}, got {image.shape}")
    if not is_binary(image):
        raise LoweringError("input image must be strictly binary")
    state = ArrayState(geometry, mode=mode, noise=noise)
    state.analog[REG_INPUT][:bs, :bs] = image
    return state


# -- mask pattern construction -------------------------------------------


# The pattern builders return read-only planes, which an Instruction keeps
# without a copy.


def block_select_pattern(geometry: PlaneGeometry, selected: np.ndarray) -> np.ndarray:
    """Full-plane bit pattern with 1s over every selected block."""
    grid, bs = geometry.block_grid, geometry.block_size
    return read_only(np.asarray(selected).reshape(grid, grid).repeat(bs, 1).repeat(bs, 0))


def border_pattern(geometry: PlaneGeometry, k: int) -> np.ndarray:
    """1s on the (k-1)-wide contaminated frame of every block (bottom/right,
    matching top-left window anchoring)."""
    grid, bs = geometry.block_grid, geometry.block_size
    out = np.zeros(geometry.shape, dtype=bool)
    if k > 1:
        out.reshape(grid, bs, -1)[:, bs - (k - 1):] = True
        out.reshape(-1, grid, bs)[..., bs - (k - 1):] = True
    return read_only(out)


def parity_pattern(geometry: PlaneGeometry, axis: str, parity: int) -> np.ndarray:
    h, w = geometry.shape
    out = np.zeros((h, w), dtype=bool)
    if axis == "col":
        out[:, parity::2] = True
    else:
        out[parity::2, :] = True
    return read_only(out)


def fc_negative_pattern(model: BnnModel, class_index: int) -> np.ndarray:
    """1 where the class's FC weight is -1, expanded to 2x2 pooled cells."""
    grid, ps = model.geometry.block_grid, model.geometry.block_size // 2
    neg = model.fc_weights[class_index] == -1  # (nb, ps, ps)
    # the pooled plane, block rows laid side by side
    pooled = neg.reshape(grid, grid, ps, ps).transpose(0, 2, 1, 3).reshape(grid * ps, -1)
    # a 0/1 byte times 0x0101 is two equal bytes in either byte order, so
    # this widens each column to two
    pairs = np.multiply(pooled, 0x0101, dtype=np.uint16).view(bool)
    return read_only(pairs.repeat(2, 0))


# -- stage lowering ------------------------------------------------------


def lower_replicate(geometry: PlaneGeometry) -> list[Instruction]:
    """Copy block (0,0) of the input register into every block.

    Doubling scheme: shift the partially replicated plane by whole blocks
    and add, log2(grid) times per axis. Requires grid to be a power of two.
    """
    grid, bs = geometry.block_grid, geometry.block_size
    if grid & (grid - 1):
        raise LoweringError(
            "stage replicate: block grid must be a power of two for replication")
    ins = [
        # keep REG_ZERO all-zero for every later masked zeroing
        Instruction("sub", dst=REG_ZERO, a=REG_ZERO, b=REG_ZERO),
        Instruction("copy", dst=REG_REPLICATED, a=REG_INPUT),
    ]
    span = bs
    while span < grid * bs:
        ins.append(Instruction("shift", dst=REG_TAP, a=REG_REPLICATED,
                               direction="S", steps=span))
        ins.append(Instruction("add", dst=REG_REPLICATED, a=REG_REPLICATED, b=REG_TAP))
        span *= 2
    span = bs
    while span < grid * bs:
        ins.append(Instruction("shift", dst=REG_TAP, a=REG_REPLICATED,
                               direction="E", steps=span))
        ins.append(Instruction("add", dst=REG_REPLICATED, a=REG_REPLICATED, b=REG_TAP))
        span *= 2
    return ins


def lower_conv(model: BnnModel) -> list[Instruction]:
    """Shift-and-masked-accumulate convolution of all kernels at once.

    Taps iterate row-major (dy outer, dx inner). Each tap contributes exactly
    one shift: tap (dy, 0) advances the row register one step north; taps
    (dy, dx>0) advance a per-row working copy one step west. A tap emits an
    add under the union of blocks whose kernel weight at that tap is +1 and a
    sub under the -1 union; one of the two is omitted when empty.
    """
    geometry, k = model.geometry, model.k
    planes: dict[bytes, np.ndarray] = {}  # one per distinct block selection
    ins = [Instruction("sub", dst=REG_ACC, a=REG_ACC, b=REG_ACC)]
    for dy in range(k):
        if dy == 0:
            ins.append(Instruction("shift", dst=REG_INPUT, a=REG_REPLICATED,
                                   direction="N", steps=0))
        else:
            ins.append(Instruction("shift", dst=REG_INPUT, a=REG_INPUT,
                                   direction="N", steps=1))
        for dx in range(k):
            if dx == 0:
                src = REG_INPUT
            else:
                if dx == 1:
                    ins.append(Instruction("copy", dst=REG_TAP, a=REG_INPUT))
                    ins.append(Instruction("shift", dst=REG_TAP, a=REG_TAP,
                                           direction="W", steps=1))
                else:
                    ins.append(Instruction("shift", dst=REG_TAP, a=REG_TAP,
                                           direction="W", steps=1))
                src = REG_TAP
            weights = model.kernels[:, dy, dx]
            for blocks, mask, op in ((weights == 1, MASK_POS, "add"),
                                     (weights == -1, MASK_NEG, "sub")):
                if blocks.any():
                    key = blocks.tobytes()
                    if key not in planes:
                        planes[key] = block_select_pattern(geometry, blocks)
                    ins.append(Instruction("pattern", dst=mask, pattern=planes[key]))
                    ins.append(Instruction(op, dst=REG_ACC, a=REG_ACC, b=src, mask=mask))
    # zero the contaminated frame in one masked copy from the zero register
    ins.append(Instruction("pattern", dst=MASK_BORDER,
                           pattern=border_pattern(geometry, k)))
    ins.append(Instruction("copy", dst=REG_ACC, a=REG_ZERO, mask=MASK_BORDER))
    return ins


def lower_relu() -> list[Instruction]:
    """Zero every negative accumulator pixel: flag nonnegatives, invert,
    masked copy from the zero register."""
    return [
        Instruction("thresh", dst=MASK_RELU, a=REG_ACC, value=-1),
        Instruction("logic", dst=MASK_RELU, a=MASK_RELU, logic="not"),
        Instruction("copy", dst=REG_ACC, a=REG_ZERO, mask=MASK_RELU),
    ]


def lower_maxpool(geometry: PlaneGeometry) -> list[Instruction]:
    """Replicating 2x2 max-pool: horizontal pass with even/odd column masks,
    then the same vertically. Even positions take their 2x2-cell partner via
    a westward shift (content moves west, so dst reads its east neighbour);
    odd positions then take the settled even value. Blocks have even sides so
    no pass crosses a cell or block boundary."""
    ins = []
    passes = [
        ("W", MASK_COL_EVEN, parity_pattern(geometry, "col", 0)),
        ("E", MASK_COL_ODD, parity_pattern(geometry, "col", 1)),
        ("N", MASK_ROW_EVEN, parity_pattern(geometry, "row", 0)),
        ("S", MASK_ROW_ODD, parity_pattern(geometry, "row", 1)),
    ]
    for direction, mask_reg, pattern in passes:
        ins.append(Instruction("pattern", dst=mask_reg, pattern=pattern))
        ins.append(Instruction("shift", dst=REG_TAP, a=REG_ACC,
                               direction=direction, steps=1))
        ins.append(Instruction("max", dst=REG_ACC, a=REG_ACC, b=REG_TAP,
                               mask=mask_reg))
    return ins


def lower_fc(model: BnnModel) -> list[Instruction]:
    """Per class: copy the pooled plane, negate under the class's -1 weight
    mask, global-sum. The replicated pooled plane makes each sum exactly 4x
    the dense reference score."""
    ins = []
    for c, name in enumerate(model.class_names):
        ins.append(Instruction("copy", dst=REG_FC, a=REG_ACC))
        ins.append(Instruction("pattern", dst=MASK_FC,
                               pattern=fc_negative_pattern(model, c)))
        ins.append(Instruction("neg", dst=REG_FC, a=REG_FC, mask=MASK_FC))
        ins.append(Instruction("gsum", a=REG_FC, label=name))
    return ins


def lower_model(model: BnnModel) -> tuple[PpaProgram, LoweringPlan]:
    """Concatenate all stages; deterministic for equal models."""
    stages = [
        ("replicate", lower_replicate(model.geometry)),
        ("conv", lower_conv(model)),
        ("relu", lower_relu()),
        ("maxpool", lower_maxpool(model.geometry)),
        ("fc", lower_fc(model)),
    ]

    instructions: list[Instruction] = []
    stage_ranges: dict[str, tuple[int, int]] = {}
    for name, seq in stages:
        start = len(instructions)
        instructions.extend(seq)
        stage_ranges[name] = (start, len(instructions))

    counts: dict[str, int] = {}
    for i in instructions:
        counts[i.opcode] = counts.get(i.opcode, 0) + 1
    conv_seq = stages[1][1]
    # one masked accumulate per tap and sign: add under R1, sub under R2
    accumulate_masks = [i.mask for i in conv_seq if i.opcode in ("add", "sub")]
    positive = accumulate_masks.count(MASK_POS)
    negative = accumulate_masks.count(MASK_NEG)
    conv_budget = {
        "shifts": sum(1 for i in conv_seq if i.opcode == "shift"),
        "accumulates": positive + negative,
        "border_zeroing": sum(1 for i in conv_seq
                              if i.opcode == "copy" and i.mask == MASK_BORDER),
        "taps_with_positive": positive,
        "taps_with_negative": negative,
    }
    plan = LoweringPlan(
        registers={
            "input": REG_INPUT, "replicated": REG_REPLICATED, "accumulator": REG_ACC,
            "tap_scratch": REG_TAP, "zero": REG_ZERO, "fc_scratch": REG_FC,
            "mask_positive": MASK_POS, "mask_negative": MASK_NEG,
            "mask_border": MASK_BORDER, "mask_col_even": MASK_COL_EVEN,
            "mask_col_odd": MASK_COL_ODD, "mask_row_even": MASK_ROW_EVEN,
            "mask_row_odd": MASK_ROW_ODD, "mask_relu": MASK_RELU,
            "mask_fc": MASK_FC,
        },
        instruction_counts=counts,
        stage_ranges=stage_ranges,
        conv_budget=conv_budget,
    )
    return PpaProgram(instructions), plan
