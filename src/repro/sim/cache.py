"""Scene-invariant caches for the simulator hot path.

A full evaluation sweep builds a fresh :class:`MilBackSimulator` per
trial, yet most of what each trial computes is a pure function of the
*scene configuration* — chirp time grids, FSA gain sweeps, clutter
returns, link-budget scalars — and never touches the trial RNG. This
module memoizes exactly that RNG-free slice at process level, so trial
N+1 reuses what trial N derived and the per-trial cost reduces to the
stochastic parts (noise, jitter, ripple application).

Two invariants keep the caches correct:

* **Keys are value keys.** Entries are keyed by the frozen dataclasses
  that define the configuration (``Scene2D``, ``FsaDesign``,
  ``Calibration``, chirps, horns), never by object identity — a sweep
  that rebuilds identical objects every trial still hits.
* **Values are immutable.** Cached arrays are marked read-only
  (``setflags(write=False)``) before they are shared, so an accidental
  in-place edit raises instead of corrupting every later trial.

Anything that consumes randomness — ripple control points, noise,
jitter — stays out of here by construction; quantities that depend on an
:class:`~repro.channel.atmosphere.AtmosphereModel` bypass the cache
(weather sweeps mutate the model too freely to key on).

Caches are process-local. A forked :mod:`repro.parallel` worker inherits
a warm copy for free; hit/miss counts per cache surface as
``cache.hits{cache=...}`` / ``cache.misses{cache=...}``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

import numpy as np

from repro import obs
from repro.antennas.array import aoa_phase_rad
from repro.sim.linkbudget import LinkBudget, PathGain

__all__ = [
    "ChirpGrid",
    "SceneInvariantCache",  # milback: disable=ML014 — public cache API
    "backscatter_gain_db",
    "cache_sizes",  # milback: disable=ML014 — public warmth probe
    "chirp_grid",
    "clear_caches",
    "clutter_paths",  # milback: disable=ML014 — public cache API
    "downlink_port_gain_db",
    "frozen_array",
    "fsa_gain_sweep",
    "static_beat_field",
]

V = TypeVar("V")


def frozen_array(array: np.ndarray) -> np.ndarray:
    """Return a C-contiguous, read-only array safe to share/cache."""
    array = np.ascontiguousarray(array)
    array.setflags(write=False)
    return array


_frozen = frozen_array


class SceneInvariantCache:
    """Bounded LRU store for one family of derived quantities.

    Single-threaded by design (the simulator runs one trial at a time
    per process; parallel sweeps use separate processes), so no locking.
    """

    def __init__(self, name: str, max_entries: int = 256) -> None:
        self.name = name
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get_or_create(self, key: Hashable, factory: Callable[[], V]) -> V:
        try:
            value = self._entries[key]
        except KeyError:
            obs.counter("cache.misses", cache=self.name).inc()
            value = factory()
            self._entries[key] = value
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return value
        self._entries.move_to_end(key)
        obs.counter("cache.hits", cache=self.name).inc()
        return value  # type: ignore[return-value]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_GRID_CACHE = SceneInvariantCache("chirp_grid", max_entries=32)
_FSA_SWEEP_CACHE = SceneInvariantCache("fsa_sweep", max_entries=256)
_CLUTTER_CACHE = SceneInvariantCache("clutter_paths", max_entries=512)
_SCALAR_GAIN_CACHE = SceneInvariantCache("link_scalars", max_entries=2048)
_STATIC_FIELD_CACHE = SceneInvariantCache("static_field", max_entries=64)

_ALL_CACHES = (
    _GRID_CACHE,
    _FSA_SWEEP_CACHE,
    _CLUTTER_CACHE,
    _SCALAR_GAIN_CACHE,
    _STATIC_FIELD_CACHE,
)


def clear_caches() -> None:
    """Empty every scene-invariant cache (tests, memory pressure)."""
    for cache in _ALL_CACHES:
        cache.clear()


def cache_sizes() -> dict[str, int]:
    """Current entry count per cache, by cache name.

    A cheap warmth probe: a persistent-pool worker that reports the same
    non-zero sizes chunk after chunk is demonstrably reusing its caches
    rather than rebuilding them (see ``docs/PERFORMANCE.md``).
    """
    return {cache.name: len(cache) for cache in _ALL_CACHES}


# --- chirp time/frequency grids ------------------------------------------------------


class ChirpGrid:
    """Precomputed sample grid for one chirp at one sample rate.

    ``t`` is the sample-time vector, ``f_inst`` the chirp's instantaneous
    frequency at each sample, ``mean_hz`` its average (the "flat" band
    reference the budget helpers use). ``key`` is the hashable identity
    downstream caches chain on, so a gain sweep over this grid can be
    memoized without hashing the arrays themselves.
    """

    __slots__ = ("chirp", "fs_hz", "n", "t", "f_inst", "mean_hz", "key")

    def __init__(self, chirp, fs_hz: float, n: int) -> None:
        self.chirp = chirp
        self.fs_hz = float(fs_hz)
        self.n = int(n)
        self.t = _frozen(np.arange(self.n) / self.fs_hz)
        self.f_inst = _frozen(np.asarray(chirp.instantaneous_frequency_hz(self.t), dtype=float))
        self.mean_hz = float(np.mean(self.f_inst)) if self.n else float(chirp.center_hz)
        self.key = (chirp, self.fs_hz, self.n)


def chirp_grid(chirp, fs_hz: float, n: int | None = None) -> ChirpGrid:
    """The shared time/instantaneous-frequency grid for ``chirp`` at ``fs_hz``.

    ``n`` defaults to one chirp period; pass an explicit sample count for
    multi-chirp windows (e.g. node-side orientation sweeps).
    """
    if n is None:
        n = int(round(chirp.duration_s * float(fs_hz)))
    key = (chirp, float(fs_hz), int(n))
    return _GRID_CACHE.get_or_create(key, lambda: ChirpGrid(chirp, fs_hz, n))


# --- FSA gain sweeps -----------------------------------------------------------------


def _fsa_key(fsa) -> Hashable:
    # DualPortFsa is identity-hashed; its behaviour is fully determined
    # by the frozen design plus the band, so key on those values.
    return (fsa.design, tuple(fsa.band_hz))


def fsa_gain_sweep(fsa, port: str, orientation_deg: float, grid: ChirpGrid) -> np.ndarray:
    """``fsa.gain_dbi(port, orientation, f)`` across a grid, memoized.

    The vectorized pattern evaluation is the single most expensive
    RNG-free term in a beat record (array-powered Bessel/sinc maths per
    sample); one scene's sweep is identical for every trial.
    """
    key = (_fsa_key(fsa), str(port), float(orientation_deg), grid.key)
    return _FSA_SWEEP_CACHE.get_or_create(
        key,
        lambda: _frozen(
            np.asarray(fsa.gain_dbi(port, float(orientation_deg), grid.f_inst), dtype=float)
        ),
    )


# --- link-budget derivations ---------------------------------------------------------


def _switch_key(switch) -> Hashable:
    # SpdtSwitch is a mutable dataclass; only its loss figures enter any
    # gain expression (state gates modulation, handled by the engine).
    return (float(switch.insertion_loss_db), float(switch.isolation_db))


def _budget_key(budget: LinkBudget) -> Hashable:
    return (
        budget.scene,
        _fsa_key(budget.fsa),
        budget.tx_horn,
        budget.rx_horn,
        _switch_key(budget.switch),
        budget.calibration,
        float(budget.tx_power_dbm),
        budget.node_id,
    )


def clutter_paths(
    budget: LinkBudget, frequency_hz: float, pointing_azimuth_deg: float
) -> tuple[PathGain, ...]:
    """Radar-equation clutter returns for one pointing, memoized.

    Depends only on the scene's reflector geometry, the horns and the TX
    power — never on the trial RNG or the atmosphere model.
    """
    key = (
        budget.scene,
        budget.tx_horn,
        budget.rx_horn,
        float(budget.tx_power_dbm),
        float(frequency_hz),
        float(pointing_azimuth_deg),
    )
    return _CLUTTER_CACHE.get_or_create(
        key,
        lambda: tuple(budget.clutter_paths(frequency_hz, pointing_azimuth_deg)),
    )


def downlink_port_gain_db(budget: LinkBudget, port: str, frequency_hz: float) -> float:
    """Memoized :meth:`LinkBudget.downlink_port_gain_db` scalar."""
    if budget.atmosphere is not None:
        obs.counter("cache.bypasses", cache="link_scalars").inc()
        return budget.downlink_port_gain_db(port, frequency_hz)
    key = ("downlink", _budget_key(budget), str(port), float(frequency_hz))
    return _SCALAR_GAIN_CACHE.get_or_create(
        key, lambda: float(budget.downlink_port_gain_db(port, frequency_hz))
    )


def backscatter_gain_db(budget: LinkBudget, port: str, frequency_hz: float) -> float:
    """Memoized :meth:`LinkBudget.backscatter_gain_db` scalar."""
    if budget.atmosphere is not None:
        obs.counter("cache.bypasses", cache="link_scalars").inc()
        return budget.backscatter_gain_db(port, frequency_hz)
    key = ("backscatter", _budget_key(budget), str(port), float(frequency_hz))
    return _SCALAR_GAIN_CACHE.get_or_create(
        key, lambda: float(budget.backscatter_gain_db(port, frequency_hz))
    )


# --- static beat field ---------------------------------------------------------------


def static_beat_field(
    budget: LinkBudget,
    grid: ChirpGrid,
    pointing_azimuth_deg: float,
    n_rx_antennas: int,
    baseline_m: float,
) -> tuple[np.ndarray, ...]:
    """Per-antenna sum of all static beat tones (clutter + TX leakage).

    Identical for every chirp of every trial in a scene: each static
    path contributes a fixed tone at slope·τ with a fixed per-antenna
    phase progression, set by the azimuth of its source. Each clutter
    path comes from the scene reflector in the same place of
    ``scene.clutter_geometry()``; the TX leakage arrives on axis. The
    per-chirp stochastic parts (cancellation residual, jitter, noise)
    multiply this field later in the engine.
    """
    key = (
        budget.scene,
        budget.tx_horn,
        budget.rx_horn,
        float(budget.tx_power_dbm),
        grid.key,
        float(pointing_azimuth_deg),
        int(n_rx_antennas),
        float(baseline_m),
    )

    def build() -> tuple[np.ndarray, ...]:
        chirp = grid.chirp
        slope_hz_per_s = chirp.slope_hz_per_s
        sqrt_ptx = math.sqrt(budget.tx_power_w())
        static = [np.zeros(grid.n, dtype=np.complex128) for _ in range(n_rx_antennas)]
        paths = [
            *clutter_paths(budget, chirp.center_hz, pointing_azimuth_deg),
            budget.self_interference_path(),
        ]
        azimuths = [azimuth for _, _, azimuth in budget.scene.clutter_geometry()] + [0.0]
        for path, azimuth in zip(paths, azimuths, strict=True):
            beat = slope_hz_per_s * path.delay_s
            phase0 = 2.0 * math.pi * chirp.start_hz * path.delay_s
            tone_shape = path.amplitude * sqrt_ptx * np.exp(
                1j * (2.0 * math.pi * beat * grid.t + phase0)
            )
            unit_phase = aoa_phase_rad(azimuth, baseline_m, chirp.center_hz)
            for m in range(n_rx_antennas):
                static[m] += tone_shape * np.exp(1j * m * unit_phase)
        return tuple(_frozen(s) for s in static)

    return _STATIC_FIELD_CACHE.get_or_create(key, build)
