import numpy as np
import pytest

from scampsim.geometry import PlaneGeometry
from scampsim.planes import read_only


@pytest.fixture
def geometry():
    return PlaneGeometry()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def snapshot(state) -> dict:
    """A copy of every plane of an ArrayState, by register name."""
    return {name: plane.copy()
            for name, plane in (*state.analog.items(), *state.digital.items())}


def same_planes(a: dict, b: dict) -> bool:
    """Whether two snapshots hold the same registers with equal values."""
    return a.keys() == b.keys() and all(np.array_equal(a[n], b[n]) for n in a)


def frozen_bits(values) -> np.ndarray:
    """0/1 values as the read-only bool bits an Instruction keeps, which
    are what ArrayState.write_pattern binds."""
    return read_only(np.array(values, dtype=bool))


def valid_conv(conv, v: int) -> np.ndarray:
    """dense_forward's conv, kept by 2x2 cell offset as (n, nb, 2, 2, pv,
    pv), back as the (n, nb, v, v) valid region: [i, b, r, c] is the conv
    at (r, c)."""
    n, nb, pv = conv.shape[0], conv.shape[1], conv.shape[-1]
    return conv.transpose(0, 1, 4, 2, 5, 3).reshape(n, nb, 2 * pv, 2 * pv)[..., :v, :v]
