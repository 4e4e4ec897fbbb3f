"""Plane geometry: a square pixel array tiled into a grid of equal blocks."""

from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


def is_binary(a: np.ndarray) -> bool:
    """True iff every element is 0 or 1: one linear pass, no sort."""
    return a.dtype == np.bool_ or not ((a != 0) & (a != 1)).any()


@dataclass(frozen=True)
class PlaneGeometry:
    """Dimensions of the processor array and its block tiling.

    The plane is a height x width pixel grid partitioned into a
    block_grid x block_grid arrangement of block_size x block_size blocks.
    Blocks are numbered row-major: block b covers rows
    (b // block_grid) * block_size .. and cols (b % block_grid) * block_size ..
    """

    height: int = 256
    width: int = 256
    block_grid: int = 4
    block_size: int = 64

    def __post_init__(self):
        if self.height != self.width:
            raise GeometryError(f"plane must be square, got {self.height}x{self.width}")
        if self.block_grid * self.block_size != self.height:
            raise GeometryError(
                f"block_grid ({self.block_grid}) * block_size ({self.block_size}) "
                f"must equal plane side ({self.height})"
            )
        if self.block_size % 2 != 0:
            raise GeometryError("block_size must be even (2x2 pooling)")

    @property
    def num_blocks(self) -> int:
        return self.block_grid * self.block_grid

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def block_origin(self, b: int) -> tuple[int, int]:
        """Top-left (row, col) of block b."""
        if not 0 <= b < self.num_blocks:
            raise GeometryError(f"block index {b} out of range 0..{self.num_blocks - 1}")
        return (b // self.block_grid) * self.block_size, (b % self.block_grid) * self.block_size

    def block_slices(self, b: int) -> tuple[slice, slice]:
        r0, c0 = self.block_origin(b)
        return slice(r0, r0 + self.block_size), slice(c0, c0 + self.block_size)
