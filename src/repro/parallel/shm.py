"""Zero-copy shared-memory transport for process-pool payloads.

Chunk payloads cross to the workers, and chunk results come back, over
the pool's pickle pipe. For scalar trial parameters and RNG streams
that is cheap, but ndarray payloads would pay three copies per
direction (serialize, pipe, deserialize). The transport is one size
rule: every ndarray of at least :data:`MIN_SHM_BYTES` found in a
payload moves through one ``multiprocessing.shared_memory`` arena per
chunk instead — the parent writes each array into the arena once, the
forked worker maps the segment and hands the trial function *views*
(no deserialize copy), and worker results come back the same way with
the parent reassembling owned copies before unlinking. Everything else
— RNG streams, floats, small arrays, the obs deltas — stays on the
pipe.

Arena lifecycle (the "guaranteed unlink" contract)
--------------------------------------------------

* **Item arenas** are created by the parent, one per chunk with
  qualifying arrays. The parent destroys each one as its chunk result
  arrives, and a ``finally`` sweep destroys whatever is left on any
  exit — success, worker crash, or serial fallback.
* **Result arenas** are created inside the worker; the worker closes
  its mapping immediately after packing (the segment persists until
  unlink) and destroys the arena itself if packing fails. The parent
  unlinks after reassembly in :func:`unpack_copies`.
* Both sides run under one resource tracker — the parent spawns it
  (:func:`ensure_tracker`) before the pool forks — so if a process dies
  between create and unlink, the tracker reclaims the segment at
  shutdown instead of leaking ``/dev/shm``.
* Worker-side item mappings cannot be closed while trial-function
  views are alive, so workers keep attached arenas in a process-local
  list and :func:`purge_attached` closes the dead ones at the start of
  each chunk (a ``BufferError`` means a view still exists — kept for
  the next purge).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

__all__ = [
    "MIN_SHM_BYTES",  # milback: disable=ML014 — public lift-threshold knob (tests)
    "Packed",  # milback: disable=ML014 — public transport envelope type
    "destroy",
    "ensure_tracker",
    "pack",
    "purge_attached",
    "unpack_copies",
    "unpack_views",
]

#: Arrays below this many bytes stay on the pickle path: the fixed cost
#: of a ref + arena slot only beats pickle for payloads of real size.
MIN_SHM_BYTES = 4096

#: Arena slots are aligned so every array view starts on a cache line.
_ALIGN = 64

#: Worker-side mappings whose views may still be alive (see purge).
_ATTACHED: list[shared_memory.SharedMemory] = []


@dataclass(frozen=True)
class _Slot:
    """Placeholder left in a packed payload where an array was lifted."""

    index: int


@dataclass(frozen=True)
class _ArrayRef:
    """Location and layout of one lifted array inside the arena."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class Packed:
    """The pickle-side remainder of a payload plus its arena handle.

    ``payload`` is the original structure with every lifted array
    replaced by a :class:`_Slot`; ``arena`` is the shared-memory
    segment name (``None`` when nothing qualified and ``payload`` is
    the untouched original); ``nbytes`` is the total array bytes moved
    through the arena.
    """

    payload: Any
    arena: str | None
    nbytes: int
    refs: tuple[_ArrayRef, ...]


def _eligible(value: Any) -> bool:
    return (
        isinstance(value, np.ndarray)
        and not value.dtype.hasobject
        and value.nbytes >= MIN_SHM_BYTES
    )


def _lift(obj: Any, arrays: list[np.ndarray]) -> Any:
    """Replace qualifying arrays in lists/tuples/dicts with slots."""
    if _eligible(obj):
        arrays.append(obj)
        return _Slot(len(arrays) - 1)
    if isinstance(obj, list):
        return [_lift(item, arrays) for item in obj]
    if isinstance(obj, tuple):
        return tuple(_lift(item, arrays) for item in obj)
    if isinstance(obj, dict):
        return {key: _lift(value, arrays) for key, value in obj.items()}
    return obj


def _fill(obj: Any, values: list[np.ndarray]) -> Any:
    """Inverse of :func:`_lift`: splice arrays back over their slots."""
    if isinstance(obj, _Slot):
        return values[obj.index]
    if isinstance(obj, list):
        return [_fill(item, values) for item in obj]
    if isinstance(obj, tuple):
        return tuple(_fill(item, values) for item in obj)
    if isinstance(obj, dict):
        return {key: _fill(value, values) for key, value in obj.items()}
    return obj


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def pack(obj: Any) -> tuple[Packed, shared_memory.SharedMemory | None]:
    """Lift large ndarrays out of ``obj`` into one fresh arena.

    Returns the pickle-side :class:`Packed` remainder and the arena
    handle (``None`` when nothing qualified). The caller owns the
    segment: the creating side must eventually :func:`destroy` it (or,
    for worker-side result arenas, close its mapping and leave the
    unlink to the parent's :func:`unpack_copies`).
    """
    arrays: list[np.ndarray] = []
    payload = _lift(obj, arrays)
    if not arrays:
        return Packed(obj, None, 0, ()), None
    contiguous = [np.ascontiguousarray(array) for array in arrays]
    offsets = []
    total = 0
    for array in contiguous:
        offsets.append(total)
        total += _aligned(array.nbytes)
    arena = shared_memory.SharedMemory(create=True, size=total)
    try:
        refs = []
        for array, offset in zip(contiguous, offsets):
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=arena.buf, offset=offset
            )
            view[...] = array
            del view
            refs.append(_ArrayRef(offset, array.shape, array.dtype.str))
        return Packed(payload, arena.name, total, tuple(refs)), arena
    except BaseException:  # milback: disable=ML004 — cleanup-and-reraise: the arena must never leak
        destroy(arena)
        raise


def _views(packed: Packed, arena: shared_memory.SharedMemory) -> list[np.ndarray]:
    return [
        np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=arena.buf, offset=ref.offset
        )
        for ref in packed.refs
    ]


def unpack_views(packed: Packed) -> Any:
    """Worker side: rebuild the payload with views into the arena.

    The views are private per-item regions of the arena copy, so a
    trial function sees the same mutability semantics a pickled copy
    would give it. The attached mapping is parked in the process-local list
    for :func:`purge_attached`; the parent unlinks the segment once the
    chunk result arrives.
    """
    if packed.arena is None:
        return packed.payload
    arena = shared_memory.SharedMemory(name=packed.arena)
    _ATTACHED.append(arena)
    return _fill(packed.payload, _views(packed, arena))


def unpack_copies(packed: Packed) -> Any:
    """Parent side: rebuild the payload with owned copies, then unlink."""
    if packed.arena is None:
        return packed.payload
    arena = shared_memory.SharedMemory(name=packed.arena)
    try:
        values = [np.array(view) for view in _views(packed, arena)]
        return _fill(packed.payload, values)
    finally:
        destroy(arena)


def purge_attached() -> None:
    """Close worker-side mappings whose trial views have died.

    A ``BufferError`` means some view is still exported; the mapping is
    kept for the next purge (and dies with the worker process at the
    latest).
    """
    kept = []
    for arena in _ATTACHED:
        try:
            arena.close()
        except BufferError:
            kept.append(arena)
    _ATTACHED[:] = kept


def destroy(arena: shared_memory.SharedMemory) -> None:
    """Close and unlink one arena, tolerating every partial state."""
    try:
        arena.close()
    except BufferError:
        # A view is still exported somewhere; the mapping dies with the
        # process, and the unlink below still reclaims the segment.
        pass
    try:
        arena.unlink()
    except FileNotFoundError:
        pass


def ensure_tracker() -> None:
    """Spawn the resource tracker before the pool forks workers.

    Forked children inherit the parent's tracker pipe, so every arena —
    parent- or worker-created — registers with one shared tracker and a
    single parent-side unlink leaves it clean. Without this, the first
    worker-side arena would spawn a per-worker tracker that outlives
    the segment and warns about (already unlinked) leaks at exit.
    """
    resource_tracker.ensure_running()
