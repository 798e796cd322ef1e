"""`mesh._cross3` against numpy's own cross product, bit for bit.

The kernel reference in `reduce_reference.py` calls `_cross3` itself, so
only an independent formulation can catch a change in its bits.
"""

import numpy as np
import pytest

from gcfmesh.mesh import _cross3

_SHAPES = [(50, 3), (37, 6, 3)]  # face rows; a kernel block of degree-6 rings


def _vectors(seed, shape):
    """Random components of both signs, of magnitudes from 1e-150 to 1e150,
    so that every product stays a normal float."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 151, shape)


def _layout(v, kind):
    """The values of v as a C-ordered, an F-ordered or a reverse-strided array."""
    if kind == "C":
        return np.ascontiguousarray(v)
    if kind == "F":
        return np.asfortranarray(v)
    back = (slice(None, None, -1),) * v.ndim
    return np.ascontiguousarray(v[back])[back]


def _out(shape, kind):
    """None, or an empty strided buffer of `shape`: a component-major array
    less its first row on every axis but the last, as the kernel writes its
    candidates, or a C array read backwards along its first axis."""
    if kind is None:
        return None
    if kind == "component-major":
        buf = np.empty((3,) + tuple(s + 1 for s in shape[-2::-1])).T
        return buf[(slice(1, None),) * (len(shape) - 1)]
    return np.empty(shape)[::-1]


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("a_kind", ["C", "F", "reversed"])
@pytest.mark.parametrize("b_kind", ["C", "F", "reversed"])
@pytest.mark.parametrize("out_kind", [None, "component-major", "reversed"])
def test_cross3_is_bitwise_np_cross(shape, a_kind, b_kind, out_kind):
    a, b = _vectors(1, shape), _vectors(2, shape)
    want = np.cross(a, b)
    out = _out(shape, out_kind)
    got = _cross3(_layout(a, a_kind), _layout(b, b_kind), out=out)
    if out is not None:
        assert got is out
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cross3_keeps_signed_zeros_and_non_finite_values_as_np_cross():
    values = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308])
    grid = np.stack(np.meshgrid(values, values, values, indexing="ij"), axis=-1)
    a = grid.reshape(-1, 3)
    b = a[::-1].copy()
    with np.errstate(invalid="ignore", over="ignore"):
        want, got = np.cross(a, b), _cross3(a, b)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
