"""Deterministic RNG discipline.

Experiments must be exactly reproducible: every trial derives its generator
from a root seed plus a tuple of string/int keys via ``numpy``'s
``SeedSequence`` machinery, so that (a) trials are independent streams and
(b) adding more sweep points never perturbs existing ones.

:func:`spawn_rng` is the reference derivation.  :func:`iter_rngs` yields
the *same* generators for a whole block of roots at once: it replays the
``SeedSequence`` mixing and PCG64 seeding arithmetic in vectorised numpy
and re-seeds one reused ``Generator`` per root through its ``state``
setter, which costs a fraction of constructing a ``SeedSequence`` per root
(see docs/fastpath.md, "RNG-compatibility contract").
"""

from __future__ import annotations

import zlib
from typing import Iterator, Sequence

import numpy as np

__all__ = ["derive_seed", "iter_rngs", "spawn_rng"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _key_to_int(key: "str | int") -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK32
    # Stable across processes (unlike hash()).
    return zlib.crc32(str(key).encode("utf-8"))


def derive_seed(root: int, *keys: "str | int") -> np.random.SeedSequence:
    """A :class:`numpy.random.SeedSequence` for (root, keys...)."""
    return np.random.SeedSequence([int(root) & _MASK32, *(_key_to_int(k) for k in keys)])


def spawn_rng(root: int, *keys: "str | int") -> np.random.Generator:
    """A fresh, independent generator keyed by ``(root, *keys)``.

    >>> g1 = spawn_rng(0, "trial", 3)
    >>> g2 = spawn_rng(0, "trial", 3)
    >>> bool((g1.integers(0, 1 << 30, 4) == g2.integers(0, 1 << 30, 4)).all())
    True
    """
    return np.random.default_rng(derive_seed(root, *keys))


# -- batched derivation ------------------------------------------------------
#
# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding
# (pcg64.h), restated over arrays.  Every entropy word derive_seed passes is
# a single uint32 (the root and int keys are masked, string keys are CRCs),
# so the assembled entropy of (root, *keys) is exactly 1 + len(keys) words
# and only the root word differs between the seeds of a block.

_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _HashMix:
    """``hashmix`` with its running multiplier (one instance per mixing pass)."""

    def __init__(self) -> None:
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * _MULT_A) & _MASK32
        value *= np.uint32(self.const)
        value ^= value >> np.uint32(16)
        return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(16)
    return result


def _seed_words(roots: Sequence[int], keys: tuple) -> np.ndarray:
    """``SeedSequence([root, *keys]).generate_state(4, uint64)`` per root,
    as a ``(len(roots), 4)`` uint64 array."""
    count = len(roots)
    masked = (int(r) & _MASK32 for r in roots)
    entropy = [np.fromiter(masked, dtype=np.uint32, count=count)]
    entropy += [np.full(count, _key_to_int(k), dtype=np.uint32) for k in keys]
    hashmix = _HashMix()
    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: 8 uint32 words cycling over the pool, paired
    # little-endian into 4 uint64 words.
    const = _INIT_B
    halves = np.empty((count, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        word = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        word *= np.uint32(const)
        word ^= word >> np.uint32(16)
        halves[:, i] = word
    return halves.astype("<u4").view("<u8").astype(np.uint64)


def iter_rngs(roots: Sequence[int], *keys: "str | int") -> Iterator[np.random.Generator]:
    """For each root in turn, a generator in the state of
    ``spawn_rng(root, *keys)``: identical streams, with the seed-sequence
    words of the whole block derived at once.

    Every yield is the *same* ``Generator`` object, re-seeded in place —
    draw from it before advancing the iterator and never keep it.

    >>> [int(g.integers(1 << 30)) for g in iter_rngs([5, 6], "trial")] == [
    ...     int(spawn_rng(r, "trial").integers(1 << 30)) for r in (5, 6)]
    True
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for row in _seed_words(roots, keys):
        # PCG64's two-step seeding from (initstate, initseq) words.
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
