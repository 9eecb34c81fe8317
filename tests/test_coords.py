"""Tests for the mixed-radix coordinate codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.topology.coords import CoordCodec, shared_codec


class TestBasics:
    def test_size_and_strides(self):
        c = CoordCodec((4, 5, 6))
        assert c.size == 120
        assert c.strides.tolist() == [30, 6, 1]

    def test_ravel_matches_numpy(self):
        c = CoordCodec((4, 5, 6))
        coords = np.argwhere(np.ones((4, 5, 6), dtype=bool))
        flat = c.ravel(coords)
        expected = np.ravel_multi_index(coords.T, (4, 5, 6))
        assert (flat == expected).all()

    def test_unravel_roundtrip(self):
        c = CoordCodec((3, 7, 2))
        idx = c.all_indices()
        assert (c.ravel(c.unravel(idx)) == idx).all()

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            CoordCodec((0, 3))
        with pytest.raises(ValueError):
            CoordCodec(())

    def test_ravel_wrong_last_axis(self):
        with pytest.raises(ValueError):
            CoordCodec((3, 3)).ravel(np.zeros((5, 3), dtype=int))


class TestSharedCodec:
    def test_one_read_only_codec_per_shape(self):
        """The traffic paths share one codec per shape, so a caller that
        wrote its strides would corrupt every other caller's routes."""
        codec = shared_codec((4, 5))
        assert shared_codec([4, 5]) is codec
        assert shared_codec((np.int64(4), 5)) is codec
        assert shared_codec((5, 4)) is not codec
        assert codec.strides.tolist() == [5, 1]
        with pytest.raises(ValueError):
            codec.strides[0] = 7
        assert codec.strides.tolist() == [5, 1]


class TestShift:
    def test_wrap_shift(self):
        c = CoordCodec((4, 5))
        idx = np.array([0])  # (0, 0)
        assert c.shift(idx, 0, -1)[0] == c.ravel(np.array([3, 0]))
        assert c.shift(idx, 1, -1)[0] == c.ravel(np.array([0, 4]))

    def test_nowrap_boundary(self):
        c = CoordCodec((4, 5))
        idx = np.array([c.ravel(np.array([3, 4]))])
        assert c.shift(idx, 0, +1, wrap=False)[0] == -1
        assert c.shift(idx, 1, +1, wrap=False)[0] == -1
        assert c.shift(idx, 0, -1, wrap=False)[0] == c.ravel(np.array([2, 4]))

    def test_axis_coord(self):
        c = CoordCodec((4, 5))
        idx = c.all_indices()
        assert (c.axis_coord(idx, 0) == idx // 5).all()
        assert (c.axis_coord(idx, 1) == idx % 5).all()

    def test_large_delta_wraps(self):
        c = CoordCodec((6,))
        assert c.shift(np.array([2]), 0, 13)[0] == (2 + 13) % 6


@given(
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4),
    st.data(),
)
def test_shift_matches_coordinate_arithmetic(shape, data):
    c = CoordCodec(shape)
    idx = c.all_indices()
    axis = data.draw(st.integers(min_value=0, max_value=len(shape) - 1))
    delta = data.draw(st.integers(min_value=-10, max_value=10))
    shifted = c.shift(idx, axis, delta, wrap=True)
    coords = c.unravel(idx)
    coords[:, axis] = (coords[:, axis] + delta) % shape[axis]
    assert (shifted == c.ravel(coords)).all()
