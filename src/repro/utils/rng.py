"""Seeded random-number-generator plumbing.

Every stochastic component in the simulator takes a ``numpy.random.Generator``
so experiments are reproducible end to end. These helpers centralize the
patterns we need: make a generator from "whatever the caller gave us",
split one generator into independent child streams, and derive row *i*'s
streams from ``(seed, i)`` alone.

Row streams come in two forms with the same bits. :func:`indexed_rngs`
derives one row through NumPy's ``SeedSequence``. :func:`indexed_rng_rows`
derives a block of rows (a fleet, a dataset block) with SeedSequence's
hash evaluated once over uint32 arrays, because building three
``SeedSequence`` objects per row dominated the block's cost. One row is
cheaper through NumPy, so per-op callers keep :func:`indexed_rngs`, which
is also the block form's test oracle.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from repro import obs
from repro.errors import ConfigurationError

__all__ = ["make_rng", "spawn_rngs", "indexed_rngs", "indexed_rng_rows"]

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    Accepts ``None`` (fresh entropy), a non-negative integer seed, a
    ``SeedSequence``, or an existing ``Generator`` (returned unchanged so
    RNG state is shared deliberately, never copied by accident). Anything
    else raises :class:`~repro.errors.ConfigurationError` before a counter
    moves; :func:`spawn_rngs` takes and checks ``seed`` the same way.

    Every *new* generator bumps the ``rng.generators.created`` counter
    (passed-through generators count separately): a metrics diff where
    that number moves for the same workload means the RNG plumbing — and
    therefore determinism — changed.
    """
    if isinstance(seed, np.random.Generator):
        obs.counter("rng.generators.passed_through").inc()
        return seed
    _check_rng_like(seed)
    obs.counter("rng.generators.created").inc()
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Produce ``count`` statistically independent generators.

    Trials in a sweep each get their own stream, so reordering or
    parallelizing trials never changes any individual trial's draws.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    _check_rng_like(seed)
    obs.counter("rng.spawn_rngs.calls").inc()
    obs.counter("rng.generators.created").inc(count)
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's own bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")


def _check_rng_like(seed: RngLike) -> None:
    """Let ``None``, a ``Generator`` or a ``SeedSequence`` through; check a seed."""
    if seed is not None and not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        _check_seed(seed)


def indexed_rngs(seed: int, index: int, count: int) -> list[np.random.Generator]:
    """Derive row ``index``'s independent generators in O(1).

    ``SeedSequence(seed, spawn_key=(index,))`` is, by NumPy's spawning
    contract, the *same* sequence ``SeedSequence(seed).spawn(index + 1)[index]``
    would produce — but without materializing the first ``index``
    children. A corpus generator can therefore hand row *i* its streams
    directly, from any worker, in any order, at any chunking, and the
    draws match a serial front-to-back run bit for bit.
    """
    _check_seed(seed)
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if index < 0:
        raise ConfigurationError("index must be non-negative")
    obs.counter("rng.indexed_rngs.calls").inc()
    obs.counter("rng.generators.created").inc(count)
    row_seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return [np.random.default_rng(child) for child in row_seq.spawn(count)]


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``n`` hash steps from step ``start``.

    Step ``k`` xors with ``init·mult^k`` and multiplies by ``init·mult^(k+1)``
    (mod 2^32): the running constant of SeedSequence's ``hashmix`` (one
    step per call) and of its ``generate_state`` output hash (one per word).
    """
    first = init * pow(mult, start, 2**32)
    chain = np.array(
        [first * pow(mult, k, 2**32) % 2**32 for k in range(n + 1)], dtype=np.uint32
    )
    return chain[:-1], chain[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = (values ^ xor) * mul
    return out ^ (out >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> 16)


#: ``generate_state(4, np.uint64)`` hashes eight words, cycling the pool.
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)


class _RowSeedSequence(ISpawnableSeedSequence):
    """``SeedSequence(seed, spawn_key=key)`` with its PCG64 state hashed ahead.

    ``PCG64`` reads ``generate_state(4, np.uint64)`` once, at construction,
    and gets the precomputed state. Every later request, ``spawn`` and
    pickling go to the real sequence, built on first use, so the generator
    spawns, pickles and deep-copies exactly like NumPy's.
    """

    def __init__(self, seed: int, key: tuple[int, int], state: np.ndarray) -> None:
        self._seed = seed
        self._key = key
        self._state: np.ndarray | None = state
        self._sequence: np.random.SeedSequence | None = None

    def _real(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self._seed, spawn_key=self._key)
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        state, self._state = self._state, None
        if state is not None and n_words == 4 and dtype is np.uint64:
            return state
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._real().spawn(n_children)

    def __reduce__(self):
        return self._real().__reduce__()


def indexed_rng_rows(seed: int, rows: range, count: int) -> list[list[np.random.Generator]]:
    """``[indexed_rngs(seed, i, count) for i in rows]``, bit for bit, in one pass.

    Child ``j`` of row ``i`` is ``SeedSequence(seed, spawn_key=(i, j))``.
    Its entropy pool is the seed-only pool, ``SeedSequence(seed).pool``,
    with the words ``i`` and ``j`` mixed in; the hash constant at that
    point depends only on the seed's word count. So the block mixes every
    row's and child's key word into a ``(rows, count, 4)`` uint32 pool and
    applies ``generate_state``'s output hash in a handful of array
    operations, then builds each ``Generator(PCG64(...))`` from its
    precomputed state. The counters move as the per-row calls would.
    """
    _check_seed(seed)
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if rows and not (0 <= min(rows[0], rows[-1]) and max(rows[0], rows[-1]) < 2**32):
        raise ConfigurationError("rows must lie in [0, 2**32)")
    obs.counter("rng.indexed_rngs.calls").inc(len(rows))
    obs.counter("rng.generators.created").inc(len(rows) * count)
    seed_words = max(1, -(-int(seed).bit_length() // 32))
    # Filling and cross-mixing the pool takes 16 hash steps, and each seed
    # word past the pool size 4 more; then come the key words' 4 each.
    xor, mul = _hash_constants(
        _INIT_A,
        _MULT_A,
        _POOL_SIZE**2 + _POOL_SIZE * max(seed_words - _POOL_SIZE, 0),
        2 * _POOL_SIZE,
    )
    pool = np.random.SeedSequence(seed).pool
    row_words = np.arange(rows.start, rows.stop, rows.step).astype(np.uint32)
    pool = _mix(pool, _hash(row_words[:, None], xor[:4], mul[:4]))
    child_words = np.arange(count, dtype=np.uint32)
    pool = _mix(pool[:, None, :], _hash(child_words[:, None], xor[4:], mul[4:]))
    words = _hash(np.tile(pool, 2), _STATE_XOR, _STATE_MUL)
    states = words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [
        [
            np.random.Generator(np.random.PCG64(_RowSeedSequence(seed, (i, j), state)))
            for j, state in enumerate(row_states)
        ]
        for i, row_states in zip(rows, states)
    ]
