"""Scene-invariant caches for the simulator hot path.

A full evaluation sweep builds a fresh :class:`MilBackSimulator` per
trial, yet most of what each trial computes is a pure function of the
*scene configuration* — chirp time grids, FSA gain sweeps, port gain
bases, static clutter fields — and never touches the trial RNG. This
module memoizes exactly that RNG-free slice at process level, so trial
N+1 reuses what trial N derived and the per-trial cost reduces to the
stochastic parts (noise, jitter, ripple application).

Three families hold it. ``chirp_grid`` and ``fsa_sweep`` are shared
across scenes (a sweep's scenes repeat chirps and orientations); the
``scene_terms`` family is the one memo of a scene's own terms: its
:class:`SceneTerms` entry, keyed on the budget's value key, holds the
port gain bases, the node and mirror tones, the horn roll-off, the
stacked static field of each pointing and the ripple's control grid,
each built on first use. A simulator resolves its entry once
(:func:`scene_terms`) and keeps the handle, so a trial that repeats a
scene pays one lookup and then only dictionary reads. The scalar tone
gains (:func:`backscatter_gain_db`, :func:`downlink_port_gain_db`) are
plain budget reads: their frequencies follow each trial's orientation
estimate, which seldom repeats.

Two invariants keep the caches correct:

* **Keys are value keys.** Entries are keyed by the frozen dataclasses
  that define the configuration (``Scene2D``, ``FsaDesign``,
  ``Calibration``, chirps, horns), never by object identity — a sweep
  that rebuilds identical objects every trial still hits. A downlink
  gain also reads the switch *state* (insertion loss when absorbing,
  isolation when reflecting), so the downlink gain base keys on it.
* **Values are immutable.** Cached arrays are marked read-only
  (``setflags(write=False)``) before they are shared, so an accidental
  in-place edit raises instead of corrupting every later trial.

Anything that consumes randomness — ripple control points, noise,
jitter — stays out of here by construction: a simulator adds its own
ripple to a cached gain base. A budget with an
:class:`~repro.channel.atmosphere.AtmosphereModel` gets a private
``scene_terms`` entry that is never stored (weather sweeps mutate the
model too freely to key on).

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
from repro.channel.propagation import propagation_delay_s
from repro.constants import SPEED_OF_LIGHT
from repro.sim.linkbudget import LinkBudget

__all__ = [
    "ChirpGrid",
    "SceneInvariantCache",  # milback: disable=ML014 — public cache API
    "SceneTerms",
    "backscatter_gain_db",
    "cache_sizes",  # milback: disable=ML014 — public warmth probe
    "chirp_grid",
    "clear_caches",
    "downlink_port_gain_db",
    "frozen_array",
    "fsa_gain_sweep",  # milback: disable=ML014 — the e2e layer table wraps it by name
    "scene_terms",
    "static_beat_field",  # milback: disable=ML014 — the e2e layer table wraps it by name
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
_SCENE_TERMS_CACHE = SceneInvariantCache("scene_terms", max_entries=64)

_ALL_CACHES = (_GRID_CACHE, _FSA_SWEEP_CACHE, _SCENE_TERMS_CACHE)


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
    # SpdtSwitch is a mutable dataclass: key on its loss figures. A
    # downlink gain also reads the state, which the gain base keys on.
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


def downlink_port_gain_db(budget: LinkBudget, port: str, frequency_hz: float) -> float:
    """:meth:`LinkBudget.downlink_port_gain_db` as a float."""
    return float(budget.downlink_port_gain_db(port, frequency_hz))


def backscatter_gain_db(budget: LinkBudget, port: str, frequency_hz: float) -> float:
    """:meth:`LinkBudget.backscatter_gain_db` as a float."""
    return float(budget.backscatter_gain_db(port, frequency_hz))


# --- static beat field ---------------------------------------------------------------


def static_beat_field(
    budget: LinkBudget,
    grid: ChirpGrid,
    pointing_azimuth_deg: float,
    n_rx_antennas: int,
    baseline_m: float,
) -> np.ndarray:
    """Per-antenna sum of all static beat tones (clutter + TX leakage),
    as one ``(n_rx_antennas, n)`` array.

    Identical for every chirp of every trial in a scene: each static
    path contributes a fixed tone at slope·τ with a fixed per-antenna
    phase progression, set by the azimuth of its source. Each clutter
    path comes from the scene reflector in the same place of
    ``scene.clutter_geometry()``; the TX leakage arrives on axis. The
    per-chirp stochastic parts (cancellation residual, jitter, noise)
    multiply this field later in the engine. The scene's
    :class:`SceneTerms` entry keeps one per pointing.
    """
    chirp = grid.chirp
    slope_hz_per_s = chirp.slope_hz_per_s
    sqrt_ptx = math.sqrt(budget.tx_power_w())
    static = np.zeros((n_rx_antennas, grid.n), dtype=np.complex128)
    paths = [
        *budget.clutter_paths(chirp.center_hz, pointing_azimuth_deg),
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
    return _frozen(static)


# --- one scene's burst terms ---------------------------------------------------------

#: Terms one :class:`SceneTerms` entry holds before its least recently used
#: goes. A steered scan adds a static field and a steer/mirror term per
#: direction: a default 21-pointing discovery sweep, with the four shared
#: terms, holds 46, so a rescan rebuilds nothing.
_TERMS_PER_SCENE = 64


def _node_delay_s(budget: LinkBudget) -> float:
    """Round-trip delay of the node's reflection."""
    return 2.0 * propagation_delay_s(budget.node_distance_m())


class SceneTerms:
    """The RNG-free terms of one scene's bursts and port gains.

    One entry of the ``scene_terms`` family, shared by every simulator
    whose budget has the same value key, and the only memo of these
    terms: each is built on its first use (from the budget and the
    shared ``chirp_grid`` and ``fsa_sweep`` families), read-only, and
    kept in an LRU of its own, sized so that a default discovery sweep
    fits (``_TERMS_PER_SCENE``). Every method takes the caller's
    ``budget``, which has this entry's key: the entry keeps none,
    because a budget's switch is mutable and its state enters the
    downlink gains, which key on it.

    Each builder is the engine's expression for its term, operation for
    operation, so a burst made from these terms is bitwise the one made
    without them.
    """

    __slots__ = ("_terms",)

    def __init__(self) -> None:
        self._terms: OrderedDict[Hashable, object] = OrderedDict()

    def _term(self, key: Hashable, build: Callable[[], V]) -> V:
        terms = self._terms
        try:
            value = terms[key]
        except KeyError:
            value = terms[key] = build()
            if len(terms) > _TERMS_PER_SCENE:
                terms.popitem(last=False)
            return value
        terms.move_to_end(key)
        return value  # type: ignore[return-value]

    def gain_base_db(
        self, budget: LinkBudget, port: str, grid: ChirpGrid, passes: int
    ) -> np.ndarray:
        """A port's gain [dB] across ``grid`` before the simulator's ripple:
        ``flat_db + passes·(fsa_sweep − fsa_flat)``.

        The FSA gain sweeps with the chirp; the rest of the budget is
        flat across the band. ``passes=2`` is the node's reflection
        (:meth:`LinkBudget.backscatter_gain_db`), which crosses the
        pattern twice; ``passes=1`` is the downlink into the port's
        detector (:meth:`LinkBudget.downlink_port_gain_db`), keyed on the
        switch state that gain reads.
        """
        state = budget.switch.state if passes == 1 else None

        def build() -> np.ndarray:
            flat_gain_db = backscatter_gain_db if passes == 2 else downlink_port_gain_db
            flat_db = flat_gain_db(budget, port, grid.mean_hz)
            orientation = budget.node_orientation_deg()
            fsa_flat = float(budget.fsa.gain_dbi(port, orientation, grid.mean_hz))
            fsa_sweep = fsa_gain_sweep(budget.fsa, port, orientation, grid)
            return _frozen(flat_db + passes * (fsa_sweep - fsa_flat))

        return self._term(("gain", passes, port, grid.key, state), build)

    def ripple_control_hz(self, budget: LinkBudget) -> np.ndarray:
        """Frequencies of the gain ripple's control points: one every
        ``fsa_ripple_correlation_hz`` across the FSA band, plus 5% of the
        span beyond each edge. The values at them are each simulator's
        own draws."""

        def build() -> np.ndarray:
            lo, hi = budget.fsa.band_hz
            span = hi - lo
            n_ctrl = max(int(span / budget.calibration.fsa_ripple_correlation_hz) + 2, 4)
            return _frozen(np.linspace(lo - 0.05 * span, hi + 0.05 * span, n_ctrl))

        return self._term(("ripple_hz",), build)

    def node_tone(self, budget: LinkBudget, grid: ChirpGrid) -> np.ndarray:
        """The node's unit beat tone across ``grid``: slope·τ with phase
        2π·f₀·τ for its round-trip delay τ."""

        def build() -> np.ndarray:
            chirp = grid.chirp
            node_delay = _node_delay_s(budget)
            node_beat = chirp.slope_hz_per_s * node_delay
            node_phase0 = 2.0 * math.pi * chirp.start_hz * node_delay
            return _frozen(np.exp(1j * (2.0 * math.pi * node_beat * grid.t + node_phase0)))

        return self._term(("node_tone", grid.key), build)

    def steer_terms(
        self, budget: LinkBudget, grid: ChirpGrid, steer_offset_deg: float
    ) -> tuple[float, np.ndarray]:
        """``(steer_factor, mirror_amp·mirror_tone)`` with the horns
        ``steer_offset_deg`` off the node.

        ``steer_factor`` is the two horns' field roll-off on the node's
        path (1 when steered at the node). The second term is the
        ground-plane mirror image (Fig. 13b artifact): co-located with
        the node, flat across the sweep, behind the same roll-off, before
        the burst's random phase.
        """

        def build() -> tuple[float, np.ndarray]:
            chirp = grid.chirp
            horn_rolloff_db = (
                float(budget.tx_horn.gain_dbi(steer_offset_deg, chirp.center_hz))
                - budget.tx_horn.peak_gain_dbi
                + float(budget.rx_horn.gain_dbi(steer_offset_deg, chirp.center_hz))
                - budget.rx_horn.peak_gain_dbi
            )
            steer_factor = 10.0 ** (horn_rolloff_db / 20.0)
            mirror_db = budget.mirror_reflection_gain_db(chirp.center_hz)
            mirror_amp = math.sqrt(budget.tx_power_w()) * steer_factor * 10.0 ** (
                mirror_db / 20.0
            )
            mirror_delay = (
                _node_delay_s(budget)
                + 2.0 * budget.calibration.mirror_excess_path_m / SPEED_OF_LIGHT
            )
            mirror_beat = chirp.slope_hz_per_s * mirror_delay
            mirror_tone = np.exp(
                1j * (2.0 * math.pi * mirror_beat * grid.t
                      + 2.0 * math.pi * chirp.start_hz * mirror_delay)
            )
            return steer_factor, _frozen(mirror_amp * mirror_tone)

        return self._term(("steer", grid.key, float(steer_offset_deg)), build)

    def static_field(
        self,
        budget: LinkBudget,
        grid: ChirpGrid,
        pointing_azimuth_deg: float,
        n_rx_antennas: int,
        baseline_m: float,
    ) -> np.ndarray:
        """:func:`static_beat_field`, ``(n_rx_antennas, n)``."""
        key = (
            "static",
            grid.key,
            float(pointing_azimuth_deg),
            int(n_rx_antennas),
            float(baseline_m),
        )
        return self._term(
            key,
            lambda: static_beat_field(
                budget, grid, pointing_azimuth_deg, n_rx_antennas, baseline_m
            ),
        )

    def backscatter_db(self, budget: LinkBudget, port: str, frequency_hz: float) -> float:
        """:func:`backscatter_gain_db` of the scene's node."""
        return self._term(
            ("backscatter", str(port), float(frequency_hz)),
            lambda: backscatter_gain_db(budget, port, frequency_hz),
        )


def scene_terms(budget: LinkBudget) -> SceneTerms:
    """The :class:`SceneTerms` entry of ``budget``'s scene.

    A simulator calls this once and keeps the handle. A budget with an
    atmosphere model gets a fresh entry of its own, not shared and not
    stored, and counts ``cache.bypasses{cache=scene_terms}``.
    """
    if budget.atmosphere is not None:
        obs.counter("cache.bypasses", cache="scene_terms").inc()
        return SceneTerms()
    return _SCENE_TERMS_CACHE.get_or_create(_budget_key(budget), SceneTerms)
