"""Mixed-radix coordinate codecs.

Nodes of a ``d``-dimensional ``n_1 x ... x n_d`` torus/mesh are identified
with flat integer indices in row-major (C) order.  :class:`CoordCodec` is a
thin, vectorised wrapper around ``ravel``/``unravel`` that also provides the
neighbour-shift primitives used everywhere in the library.
:func:`shared_codec` hands out one read-only codec per shape to the
traffic paths, which would otherwise build several per query or route.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["CoordCodec", "shared_codec"]


class CoordCodec:
    """Bidirectional map between flat indices and coordinate tuples.

    Parameters
    ----------
    shape:
        Side lengths ``(n_1, ..., n_d)``; axis 0 is the paper's "first
        dimension" (the ``C_m`` factor of ``B^d_n``).
    """

    def __init__(self, shape: Sequence[int]) -> None:
        shape = tuple(int(s) for s in shape)
        if not shape or any(s <= 0 for s in shape):
            raise ValueError(f"invalid shape {shape}")
        self.shape = shape
        self.ndim = len(shape)
        self.size = int(np.prod(shape, dtype=np.int64))
        # Row-major strides in units of elements.
        strides = np.ones(self.ndim, dtype=np.int64)
        for i in range(self.ndim - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        self.strides = strides

    # -- codec ---------------------------------------------------------------

    def ravel(self, coords: np.ndarray) -> np.ndarray:
        """Coordinate array of shape (..., d) -> flat indices of shape (...)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape[-1] != self.ndim:
            raise ValueError(f"expected last axis {self.ndim}, got {coords.shape}")
        return (coords * self.strides).sum(axis=-1)

    def unravel(self, idx: "int | np.ndarray") -> np.ndarray:
        """Flat indices of shape (...) -> coordinate array of shape (..., d)."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(idx.shape + (self.ndim,), dtype=np.int64)
        rem = idx
        for axis in range(self.ndim):
            out[..., axis], rem = np.divmod(rem, self.strides[axis])
        return out

    # -- neighbours ----------------------------------------------------------

    def shift(self, idx: np.ndarray, axis: int, delta: int, *, wrap: bool = True) -> np.ndarray:
        """Flat indices of the nodes ``delta`` steps along ``axis``.

        With ``wrap=False``, positions that would leave the grid are returned
        as ``-1`` (callers filter them out; used for meshes).
        """
        idx = np.asarray(idx, dtype=np.int64)
        n = self.shape[axis]
        stride = self.strides[axis]
        coord = (idx // stride) % n
        new = coord + delta
        if wrap:
            new_mod = new % n
            return idx + (new_mod - coord) * stride
        out = idx + (new - coord) * stride
        bad = (new < 0) | (new >= n)
        out = np.where(bad, -1, out)
        return out

    def axis_coord(self, idx: "int | np.ndarray", axis: int) -> np.ndarray:
        """The coordinate along ``axis`` for flat indices."""
        idx = np.asarray(idx, dtype=np.int64)
        return (idx // self.strides[axis]) % self.shape[axis]

    def all_indices(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)


@lru_cache(maxsize=32)
def _shared_codec(shape: tuple[int, ...]) -> CoordCodec:
    codec = CoordCodec(shape)
    codec.strides.flags.writeable = False
    return codec


def shared_codec(shape: Sequence[int]) -> CoordCodec:
    """The one cached :class:`CoordCodec` of ``shape``.

    Every caller of a shape gets the same object, so it is read-only:
    its ``strides`` cannot be written, and nobody may rebind its
    attributes.
    """
    return _shared_codec(tuple(shape))
