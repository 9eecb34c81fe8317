"""Synthetic traffic patterns for the torus simulator.

Classic patterns from the mesh/torus routing literature — the workloads a
machine built on the paper's constructions would actually run:

* ``uniform``    — independent uniformly random destinations,
* ``transpose``  — coordinate rotation (x1, ..., xd) -> (xd, x1, ..., x_{d-1})
                   re-flattened in the rotated shape: adversarial for e-cube,
* ``neighbor``   — nearest-neighbour halo exchange (stencil codes),
* ``hotspot``    — all-to-one with background uniform traffic,
* ``bitreverse`` — index bit-reversal (FFT-style; power-of-two sizes only).

Count contract: :func:`make_traffic` returns **exactly** ``count`` rows for
every pattern.  Patterns that exclude self-addressed pairs (``src == dst``)
resample deterministically from the same generator until the quota is met,
instead of silently returning fewer rows.

Two interfaces per pattern:

* the closed-loop generators behind :func:`make_traffic` draw sources
  themselves (everything injected at once);
* :func:`pattern_destinations` answers "where does a message from *this*
  source go", which is what the open-loop injection model
  (:mod:`repro.sim.workload`) needs — there the *injection process* picks
  the sources.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.topology.coords import CoordCodec, shared_codec

__all__ = [
    "TRAFFIC_PATTERNS",
    "bitreverse_index",
    "make_traffic",
    "pattern_destinations",
    "transpose_index",
]

#: Fraction of hotspot messages aimed at the hot node (the rest are uniform).
HOTSPOT_FRACTION = 0.3


# ---------------------------------------------------------------------------
# Deterministic index maps (exposed for tests and the open-loop model)
# ---------------------------------------------------------------------------


def transpose_index(codec: CoordCodec, idx: np.ndarray) -> np.ndarray:
    """The generalized transpose permutation of flat indices.

    Coordinates rotate one axis — ``(x1, ..., xd) -> (xd, x1, ..., x_{d-1})``
    — and the rotated coordinate tuple is re-flattened **in the rotated
    shape**, which makes the map a bijection of ``[0, size)`` for *any*
    shape (the matrix-transpose / corner-turn permutation).  On shapes with
    all sides equal the rotated shape is the original shape and this reduces
    to the classic coordinate transpose (an involution for ``d == 2``).

    Raises :class:`ValueError` for shapes where the map degenerates to the
    identity (e.g. fewer than two axes of length > 1) — there is no
    transpose traffic to generate on those.
    """
    rolled_shape = tuple(int(s) for s in np.roll(codec.shape, 1))
    rolled_codec = shared_codec(rolled_shape)
    # The map is linear in the (independently ranging) coordinates, so it is
    # the identity iff, on every axis of length > 1, the source stride equals
    # the stride of the axis the coordinate rotates into.
    d = codec.ndim
    identity = all(
        codec.shape[k] <= 1 or codec.strides[k] == rolled_codec.strides[(k + 1) % d]
        for k in range(d)
    )
    if identity:
        raise ValueError(
            f"transpose is the identity on shape {codec.shape} (needs at "
            "least two axes of length > 1 with distinct layouts); no "
            "transpose traffic exists there"
        )
    coords = codec.unravel(np.asarray(idx, dtype=np.int64))
    rolled = np.roll(coords, 1, axis=-1)
    return rolled_codec.ravel(rolled)


def bitreverse_index(codec: CoordCodec, idx: np.ndarray) -> np.ndarray:
    """The bit-reversal permutation of flat indices.

    Only defined when the number of nodes is a power of two — reversing
    ``log2(size)`` bits is a bijection of ``[0, size)`` exactly then.  The
    old behaviour of reducing the reversed value ``% size`` silently turned
    the pattern into an unrelated (non-injective) map on other sizes, so
    non-power-of-two shapes now raise :class:`ValueError` instead.  Sizes
    below 4 also raise: with 0 or 1 bits the reversal is the identity.
    """
    size = codec.size
    if size < 4 or size & (size - 1):
        raise ValueError(
            f"bitreverse needs a power-of-two number of nodes >= 4, got "
            f"{size} (shape {codec.shape}); the reversed index is only a "
            "permutation for power-of-two sizes"
        )
    bits = size.bit_length() - 1
    x = np.asarray(idx, dtype=np.int64).copy()
    out = np.zeros_like(x)
    for _ in range(bits):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


# ---------------------------------------------------------------------------
# Closed-loop generators (everything injected at cycle 0)
# ---------------------------------------------------------------------------


def _exact(count: int, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """Accumulate ``draw(k)`` batches until exactly ``count`` valid rows.

    ``draw(k)`` samples ``k`` candidate pairs and returns the valid subset;
    the shortfall is redrawn from the same generator, so the result is a
    deterministic function of the rng state while always honouring the
    requested count (the old generators returned whatever survived one
    filter pass, undercounting by a pattern- and seed-dependent amount).
    """
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    chunks = []
    have = 0
    while have < count:
        pairs = draw(count - have)
        if len(pairs):
            chunks.append(pairs)
            have += len(pairs)
    return np.concatenate(chunks, axis=0)[:count]


def _require_distinct_nodes(codec: CoordCodec, pattern: str) -> None:
    if codec.size < 2:
        raise ValueError(f"{pattern!r} traffic needs at least 2 nodes, got {codec.size}")


def _uniform(codec: CoordCodec, count: int, rng: np.random.Generator) -> np.ndarray:
    _require_distinct_nodes(codec, "uniform")

    def draw(k: int) -> np.ndarray:
        src = rng.integers(0, codec.size, k)
        dst = rng.integers(0, codec.size, k)
        keep = src != dst
        return np.stack([src[keep], dst[keep]], axis=1)

    return _exact(count, draw)


def _transpose(codec: CoordCodec, count: int, rng: np.random.Generator) -> np.ndarray:
    transpose_index(codec, np.int64(0))  # validate the shape up front

    def draw(k: int) -> np.ndarray:
        src = rng.integers(0, codec.size, k)
        dst = transpose_index(codec, src)
        keep = src != dst  # fixed points of the permutation have no message
        return np.stack([src[keep], dst[keep]], axis=1)

    return _exact(count, draw)


def _neighbor(codec: CoordCodec, count: int, rng: np.random.Generator) -> np.ndarray:
    if min(codec.shape) < 2:
        raise ValueError(
            f"neighbor traffic needs every side >= 2, got shape {codec.shape} "
            "(a length-1 axis wraps a node onto itself)"
        )
    src = rng.integers(0, codec.size, count)
    dst = _neighbor_destinations(codec, src, rng)
    return np.stack([src, dst], axis=1)


def _hotspot(codec: CoordCodec, count: int, rng: np.random.Generator) -> np.ndarray:
    _require_distinct_nodes(codec, "hotspot")
    hot = int(rng.integers(0, codec.size))

    def draw(k: int) -> np.ndarray:
        src = rng.integers(0, codec.size, k)
        dst = np.where(rng.random(k) < HOTSPOT_FRACTION, hot, rng.integers(0, codec.size, k))
        keep = src != dst
        return np.stack([src[keep], dst[keep]], axis=1)

    return _exact(count, draw)


def _bitreverse(codec: CoordCodec, count: int, rng: np.random.Generator) -> np.ndarray:
    bitreverse_index(codec, np.int64(0))  # validate the size up front

    def draw(k: int) -> np.ndarray:
        src = rng.integers(0, codec.size, k)
        dst = bitreverse_index(codec, src)
        keep = src != dst  # palindromic indices have no message
        return np.stack([src[keep], dst[keep]], axis=1)

    return _exact(count, draw)


def _neighbor_destinations(
    codec: CoordCodec, src: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A uniformly random torus neighbour of each source node."""
    axis = rng.integers(0, codec.ndim, len(src))
    sign = rng.choice([-1, 1], len(src))
    dst = src.copy()
    for a in range(codec.ndim):
        mask = axis == a
        if mask.any():
            dst[mask] = codec.shift(src[mask], a, +1, wrap=True) * (sign[mask] > 0) + codec.shift(
                src[mask], a, -1, wrap=True
            ) * (sign[mask] < 0)
    return dst


TRAFFIC_PATTERNS = {
    "uniform": _uniform,
    "transpose": _transpose,
    "neighbor": _neighbor,
    "hotspot": _hotspot,
    "bitreverse": _bitreverse,
}


def make_traffic(
    shape: tuple[int, ...], pattern: str, count: int, rng: np.random.Generator
) -> np.ndarray:
    """(count, 2) array of (src, dst) flat-index pairs on the ``shape`` torus.

    Always exactly ``count`` rows: patterns that exclude ``src == dst``
    resample (deterministically from ``rng``) until the quota is met.
    """
    if pattern not in TRAFFIC_PATTERNS:
        raise KeyError(f"unknown pattern {pattern!r}; options {sorted(TRAFFIC_PATTERNS)}")
    codec = shared_codec(shape)
    out = TRAFFIC_PATTERNS[pattern](codec, count, rng)
    assert len(out) == count, f"{pattern}: {len(out)} rows != requested {count}"
    return out


# ---------------------------------------------------------------------------
# Open-loop interface: destinations for externally chosen sources
# ---------------------------------------------------------------------------


def pattern_destinations(
    shape: tuple[int, ...], src: np.ndarray, pattern: str, rng: np.random.Generator
) -> np.ndarray:
    """Destinations for messages whose sources the injection process chose.

    Random patterns (``uniform``, ``hotspot``, ``neighbor``) draw their
    destination per message, resampling ``dst == src`` where the pattern
    excludes it.  Deterministic patterns (``transpose``, ``bitreverse``)
    return their index map — fixed points come back as ``dst == src`` and
    the caller (:func:`repro.sim.workload.make_open_loop`) drops those
    messages, mirroring the closed-loop generators which never emit them.
    """
    codec = shared_codec(shape)
    src = np.asarray(src, dtype=np.int64)
    if pattern == "uniform":
        _require_distinct_nodes(codec, pattern)
        dst = rng.integers(0, codec.size, len(src))
        bad = np.flatnonzero(dst == src)
        while len(bad):
            dst[bad] = rng.integers(0, codec.size, len(bad))
            bad = bad[dst[bad] == src[bad]]
        return dst
    if pattern == "hotspot":
        _require_distinct_nodes(codec, pattern)
        hot = int(rng.integers(0, codec.size))
        dst = np.where(
            rng.random(len(src)) < HOTSPOT_FRACTION,
            hot,
            rng.integers(0, codec.size, len(src)),
        )
        bad = np.flatnonzero(dst == src)
        while len(bad):
            dst[bad] = np.where(
                rng.random(len(bad)) < HOTSPOT_FRACTION,
                hot,
                rng.integers(0, codec.size, len(bad)),
            )
            bad = bad[dst[bad] == src[bad]]
        return dst
    if pattern == "neighbor":
        if min(codec.shape) < 2:
            raise ValueError(
                f"neighbor traffic needs every side >= 2, got shape {codec.shape}"
            )
        return _neighbor_destinations(codec, src, rng)
    if pattern == "transpose":
        return transpose_index(codec, src)
    if pattern == "bitreverse":
        return bitreverse_index(codec, src)
    raise KeyError(f"unknown pattern {pattern!r}; options {sorted(TRAFFIC_PATTERNS)}")
