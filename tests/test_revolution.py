"""The cylinder and the cone share one surface-of-revolution builder; their
vertex and face arrays stay bitwise equal to the two separate builders
they replaced, which are copied below as the reference."""

import numpy as np
import pytest

import gcfmesh as g
from gcfmesh.errors import BadResolution


def _band_faces(segments, bands):
    i = np.arange(segments)
    lower = segments * np.arange(bands)[:, None]
    a, b = lower + i, lower + (i + 1) % segments
    c, d = b + segments, a + segments
    return np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)],
                    axis=1).reshape(-1, 3)


def _reference_cylinder(segments=32, rings=16, radius=1.0, height=2.0):
    if segments < 3:
        raise BadResolution("segments must be >= 3")
    if rings < 1:
        raise BadResolution("rings must be >= 1")
    theta = np.arange(segments) * (2.0 * np.pi / segments)
    xs = radius * np.cos(theta)
    ys = radius * np.sin(theta)
    zs = np.linspace(-height / 2.0, height / 2.0, rings + 1)
    verts = np.empty((segments * (rings + 1) + 2, 3))
    verts[:-2, 0] = np.tile(xs, rings + 1)
    verts[:-2, 1] = np.tile(ys, rings + 1)
    verts[:-2, 2] = np.repeat(zs, segments)
    bottom_center = segments * (rings + 1)
    top_center = bottom_center + 1
    verts[bottom_center] = (0.0, 0.0, zs[0])
    verts[top_center] = (0.0, 0.0, zs[-1])
    i = np.arange(segments)
    i1 = (i + 1) % segments
    bottom = np.stack([np.full(segments, bottom_center), i1, i], axis=1)
    top_row = rings * segments
    top = np.stack([np.full(segments, top_center), top_row + i, top_row + i1], axis=1)
    return g.TriangleMesh(verts, np.concatenate([_band_faces(segments, rings),
                                                 bottom, top]))


def _reference_cone(segments=32, rings=8, radius=1.0, height=2.0):
    if segments < 3:
        raise BadResolution("segments must be >= 3")
    if rings < 1:
        raise BadResolution("rings must be >= 1")
    theta = np.arange(segments) * (2.0 * np.pi / segments)
    cs, sn = np.cos(theta), np.sin(theta)
    j = np.arange(rings)
    rj = (radius * (rings - j) / rings)[:, None]
    zj = -height / 2.0 + j * height / rings
    verts = np.concatenate([
        np.column_stack([(rj * cs).ravel(), (rj * sn).ravel(), zj.repeat(segments)]),
        [[0.0, 0.0, height / 2.0], [0.0, 0.0, -height / 2.0]],
    ])
    apex = segments * rings
    base_center = apex + 1
    i = np.arange(segments)
    i1 = (i + 1) % segments
    top_row = (rings - 1) * segments
    tip = np.stack([top_row + i, top_row + i1, np.full(segments, apex)], axis=1)
    base = np.stack([np.full(segments, base_center), i1, i], axis=1)
    return g.TriangleMesh(verts, np.concatenate([_band_faces(segments, rings - 1),
                                                 tip, base]))


_PAIRS = [(g.cylinder, _reference_cylinder), (g.cone, _reference_cone)]
_SHAPES = [{}, {"radius": 0.37, "height": 3.3}, {"radius": 1e-3, "height": -2.5},
           {"radius": 7.1, "height": 0.1}]


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("make, reference", _PAIRS)
@pytest.mark.parametrize("segments, rings",
                         [(3, 1), (32, 16), (320, 312), (600, 4), (5, 2), (7, 3)])
@pytest.mark.parametrize("shape", _SHAPES)
def test_revolution_bitwise_equal_to_reference(make, reference, segments, rings,
                                               shape):
    new = make(segments, rings, **shape)
    old = reference(segments, rings, **shape)
    assert _same_bits(new.vertices, old.vertices)
    assert _same_bits(new.faces, old.faces)


@pytest.mark.parametrize("make, reference", _PAIRS)
@pytest.mark.parametrize("segments, rings",
                         [(2, 4), (2, -3), (3, 0), (3, -1), (3, -2), (3, -7)])
def test_revolution_resolution_errors_match_reference(make, reference, segments,
                                                      rings):
    with pytest.raises(BadResolution) as expected:
        reference(segments, rings)
    with pytest.raises(BadResolution) as got:
        make(segments, rings)
    assert str(got.value) == str(expected.value)
