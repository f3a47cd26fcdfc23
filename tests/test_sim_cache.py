"""The scene-invariant cache: warm trials return the bytes of cold ones.

``repro.sim.cache`` memoizes the RNG-free terms of a scene's bursts and
port gains across simulators. The cases below run each simulator entry
point on a cold cache and again after a simulator on another seed has
warmed it; the returns must be equal element for element. A memo that
kept one simulator's ripple, or one switch state's gain, would serve it
to the next and fail here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.ap.fmcw import FmcwProcessor
from repro.antennas.dual_port_fsa import DualPortFsa
from repro.antennas.fsa import FsaDesign
from repro.channel.atmosphere import AtmosphereModel
from repro.channel.scene import Scene2D
from repro.dsp.fftutils import window_taps
from repro.dsp.signal import Signal
from repro.hardware.switch import SwitchState
from repro.protocol.discovery import BeamScanDiscovery
from repro.protocol.link import MilBackLink
from repro.sim import cache as simcache
from repro.sim.engine import MilBackSimulator

SEED = 11
WARMING_SEED = 12
BITS = np.random.default_rng(5).integers(0, 2, 32).astype(np.uint8)


def _scene(furnished: bool, orientation_deg: float) -> Scene2D:
    return Scene2D.single_node(
        3.0, azimuth_deg=5.0, orientation_deg=orientation_deg, with_clutter=furnished
    )


def _arrays(value) -> list[np.ndarray]:
    """Every number in a return, as arrays in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    if isinstance(value, dict):
        return [a for key in sorted(value) for a in _arrays(value[key])]
    if value is None or isinstance(value, (bool, int, float, str)):
        return [np.asarray(value)]
    if isinstance(value, Signal):
        return [value.samples]
    return [a for item in vars(value).values() for a in _arrays(item)]


#: Each entry point the engine exposes, on a fresh simulator per call.
CALLS = {
    "beat_burst_2rx": lambda sim: sim.beat_burst(),
    "beat_burst_8rx": lambda sim: sim.beat_burst(n_rx_antennas=8),
    "beat_burst_steered": lambda sim: sim.beat_burst(steer_azimuth_deg=-12.0),
    "beat_burst_moving": lambda sim: sim.beat_burst(radial_velocity_mps=1.5),
    "field1_uplink": lambda sim: sim.simulate_field1(True),
    "field1_downlink": lambda sim: sim.simulate_field1(False),
    "node_orientation": lambda sim: sim.simulate_node_orientation(return_traces=True),
    "downlink": lambda sim: sim.simulate_downlink(BITS, 2e6, keep_traces=True),
    "uplink": lambda sim: sim.simulate_uplink(BITS, 10e6),
    "observe": lambda sim: sim.observe_burst(),
}


def _run(scene: Scene2D, seed: int, atmosphere) -> dict[str, list[np.ndarray]]:
    return {
        name: _arrays(call(MilBackSimulator(scene, seed=seed, atmosphere=atmosphere)))
        for name, call in CALLS.items()
    }


def _assert_equal_runs(cold, warm) -> None:
    assert cold.keys() == warm.keys()
    for name in cold:
        assert len(cold[name]) == len(warm[name]), name
        for a, b in zip(cold[name], warm[name]):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"), name


def _bypasses() -> float:
    return sum(
        metric.value
        for _, metric in obs.get_registry().items()
        if isinstance(metric, obs.Counter) and metric.name == "cache.bypasses"
    )


class TestColdAgainstWarm:
    @pytest.mark.parametrize("orientation_deg", [0.0, 10.0])
    @pytest.mark.parametrize("furnished", [True, False], ids=["furnished", "clear"])
    def test_warm_cache_returns_cold_bytes(self, furnished, orientation_deg):
        scene = _scene(furnished, orientation_deg)
        simcache.clear_caches()
        cold = _run(scene, SEED, None)
        _run(scene, WARMING_SEED, None)
        _assert_equal_runs(cold, _run(scene, SEED, None))

    def test_downlink_fallback_covered(self):
        sim = MilBackSimulator(_scene(True, 0.0), seed=SEED)
        assert sim.simulate_downlink(BITS, 2e6).used_ook_fallback
        sim = MilBackSimulator(_scene(True, 10.0), seed=SEED)
        assert not sim.simulate_downlink(BITS, 2e6).used_ook_fallback

    @pytest.mark.parametrize("orientation_deg", [0.0, 10.0])
    def test_atmosphere_bypasses_and_keeps_bytes(self, orientation_deg):
        scene = _scene(True, orientation_deg)
        rain = AtmosphereModel.heavy_rain()
        simcache.clear_caches()
        cold = _run(scene, SEED, rain)
        _run(scene, WARMING_SEED, rain)
        _run(scene, WARMING_SEED, None)
        before = _bypasses()
        warm = _run(scene, SEED, rain)
        assert _bypasses() > before
        _assert_equal_runs(cold, warm)
        # The weather moves the outputs, so the bypass is not a no-op.
        clear_air = _run(scene, SEED, None)
        assert not np.array_equal(clear_air["observe"][0], cold["observe"][0])


class TestDownlinkSwitchState:
    """A downlink gain reads the switch state: insertion loss when
    absorbing, isolation when reflecting. Each memo keys on it."""

    SCENE = Scene2D.single_node(3.0, orientation_deg=10.0)
    BITS = np.random.default_rng(3).integers(0, 2, 64).astype(np.uint8)

    def _readings(self, state: SwitchState, seed: int = 1):
        def sim():
            s = MilBackSimulator(self.SCENE, seed=seed)
            s.node.set_port_states(state, state)
            return s

        downlink = sim().simulate_downlink(self.BITS, 2e6)
        adc_a, adc_b = sim().simulate_field1(True)
        return (downlink.sinr_a_db, downlink.sinr_b_db, downlink.ber), (
            adc_a.samples,
            adc_b.samples,
        )

    @pytest.mark.parametrize(
        ("state", "other"),
        [
            (SwitchState.REFLECT, SwitchState.ABSORB),
            (SwitchState.ABSORB, SwitchState.REFLECT),
        ],
    )
    def test_readings_keep_their_cold_values(self, state, other):
        simcache.clear_caches()
        cold_downlink, cold_adc = self._readings(state)
        simcache.clear_caches()
        self._readings(other, seed=2)
        warm_downlink, warm_adc = self._readings(state)
        assert warm_downlink == cold_downlink
        for cold, warm in zip(cold_adc, warm_adc):
            assert np.array_equal(cold, warm)

    def test_state_moves_the_downlink(self):
        simcache.clear_caches()
        (absorb_sinr, _, _), (absorb_a, _) = self._readings(SwitchState.ABSORB)
        (reflect_sinr, _, _), (reflect_a, _) = self._readings(SwitchState.REFLECT)
        assert reflect_sinr < absorb_sinr - 10.0
        assert reflect_a.max() < absorb_a.max()

    def test_one_simulator_follows_its_switch(self):
        # Both simulators draw port A's ripple at the same point of one
        # seed's stream, so their port amplitudes differ only by state.
        simcache.clear_caches()
        fresh = MilBackSimulator(self.SCENE, seed=1)
        fresh.node.set_port_states(SwitchState.REFLECT, SwitchState.REFLECT)
        fresh.simulate_field1(True)
        chirp = fresh.ap.config.field1_chirp
        grid = simcache.chirp_grid(chirp, 200e6, int(round(chirp.duration_s * 200e6)))
        sim = MilBackSimulator(self.SCENE, seed=1)
        sim.simulate_field1(True)
        absorbing = sim._port_amplitude("A", grid, passes=1)
        sim.node.set_port_states(SwitchState.REFLECT, SwitchState.REFLECT)
        reflecting = sim._port_amplitude("A", grid, passes=1)
        assert np.array_equal(reflecting, fresh._port_amplitude("A", grid, passes=1))
        assert np.all(reflecting < absorbing)


def _family(kind: str) -> float:
    return obs.counter(f"cache.{kind}", cache="scene_terms").value


def _traffic(kind: str) -> dict[str, float]:
    """Every ``cache.{kind}{cache=...}`` counter, by key."""
    snapshot = obs.get_registry().snapshot()
    return {k: m["value"] for k, m in snapshot.items() if k.startswith(f"cache.{kind}")}


class TestSceneTermsContract:
    def test_one_lookup_per_simulator(self):
        scene = _scene(True, 10.0)
        simcache.clear_caches()
        misses, hits = _family("misses"), _family("hits")
        for n_bursts in (1, 3, 2):
            sim = MilBackSimulator(scene, seed=n_bursts)
            for _ in range(n_bursts):
                sim.simulate_localization()
            sim.simulate_field1(True)
        assert _family("misses") - misses == 1
        assert _family("hits") - hits == 2

    def test_warm_trial_reads_its_terms_and_grid(self):
        """The functional claim of the scene-cache benchmark: a warm
        trial hits `scene_terms` and `chirp_grid` and misses no family."""
        scene = Scene2D.single_node(3.0, orientation_deg=10.0)
        simcache.clear_caches()
        MilBackSimulator(scene, seed=7).simulate_localization()
        hits, misses = _traffic("hits"), _traffic("misses")
        MilBackSimulator(scene, seed=7).simulate_localization()
        after = _traffic("hits")
        for family in ("scene_terms", "chirp_grid"):
            key = f"cache.hits{{cache={family}}}"
            assert after.get(key, 0.0) > hits.get(key, 0.0)
        assert _traffic("misses") == misses

    def test_warm_exchange_misses_no_family(self):
        """A link exchange on another seed of a warm scene misses no
        family. Its tone frequencies follow each seed's orientation
        estimate, so the tone gains are budget reads, not memo keys."""
        scene = Scene2D.single_node(3.0, orientation_deg=10.0)
        payload = bytes(range(32))

        def exchange(seed: int) -> None:
            link = MilBackLink(MilBackSimulator(scene, seed=seed))
            assert link.send_to_node(payload).delivered
            assert link.receive_from_node(payload).delivered

        simcache.clear_caches()
        exchange(1)
        misses = _traffic("misses")
        exchange(2)
        assert _traffic("misses") == misses

    def test_rescan_rebuilds_nothing_and_returns_cold_bytes(self):
        """A default discovery sweep fits in its scene's entry: 21
        pointings, each a static field and a steer/mirror term, plus the
        two gain bases, the ripple grid and the node tone. So a rescan,
        on any seed, rebuilds no term, and the first seed's rescan
        detects what its cold scan did."""
        scene = Scene2D.single_node(3.0, azimuth_deg=12.0, orientation_deg=8.0)

        def scan(seed: int):
            sim = MilBackSimulator(scene, seed=seed)
            return BeamScanDiscovery(sim).scan(), sim._terms

        simcache.clear_caches()
        cold, terms = scan(SEED)
        assert len(cold) == 1
        stored = dict(terms._terms)
        assert len(stored) == 2 * 21 + 4
        for seed in (WARMING_SEED, SEED):
            detections, rescanned = scan(seed)
            assert rescanned is terms
            assert terms._terms.keys() == stored.keys()
            assert all(terms._terms[key] is term for key, term in stored.items())
        assert detections == cold

    def test_sizes_and_clear(self):
        simcache.clear_caches()
        assert simcache.cache_sizes() == {"chirp_grid": 0, "fsa_sweep": 0, "scene_terms": 0}
        MilBackSimulator(_scene(False, 10.0), seed=1).simulate_localization()
        assert simcache.cache_sizes()["scene_terms"] == 1
        simcache.clear_caches()
        assert simcache.cache_sizes()["scene_terms"] == 0

    def test_atmosphere_budget_gets_a_private_entry(self):
        scene = _scene(True, 10.0)
        simcache.clear_caches()
        bypasses = _family("bypasses")
        sim = MilBackSimulator(scene, seed=1, atmosphere=AtmosphereModel.heavy_rain())
        sim.simulate_localization()
        assert _family("bypasses") - bypasses == 1
        assert simcache.cache_sizes()["scene_terms"] == 0

    def test_bounded(self):
        simcache.clear_caches()
        cap = simcache._SCENE_TERMS_CACHE.max_entries
        for i in range(cap + 3):
            MilBackSimulator(Scene2D.single_node(1.0 + 0.01 * i), seed=1)
        assert simcache.cache_sizes()["scene_terms"] == cap
        terms = MilBackSimulator(_scene(True, 10.0), seed=1)._terms
        sim = MilBackSimulator(_scene(True, 10.0), seed=2)
        for k in range(simcache._TERMS_PER_SCENE + 5):
            sim.beat_burst(steer_azimuth_deg=float(k))
        assert len(terms._terms) == simcache._TERMS_PER_SCENE

    def test_terms_are_read_only(self):
        sim = MilBackSimulator(_scene(True, 10.0), seed=1)
        budget, terms = sim.budget, sim._terms
        grid = simcache.chirp_grid(
            sim.ap.config.ranging_chirp, sim.ap.config.beat_sample_rate_hz
        )
        arrays = [
            terms.gain_base_db(budget, "A", grid, 2),
            terms.gain_base_db(budget, "B", grid, 1),
            terms.ripple_control_hz(budget),
            terms.node_tone(budget, grid),
            terms.steer_terms(budget, grid, 0.0)[1],
            terms.static_field(budget, grid, 5.0, 2, sim.ap.config.rx_baseline_m),
            window_taps("hann", 720),
            window_taps("rect", 16),
            FmcwProcessor().chirp_spectra(np.ones((2, 64), complex), 40e6)[0],
        ]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_window_taps_memoized_and_unchanged(self):
        assert window_taps("hann", 720) is window_taps("hann", 720)
        assert np.array_equal(window_taps("hann", 720), np.hanning(720))
        assert np.array_equal(window_taps("blackman", 33), np.blackman(33))

    def test_fsa_taper_shared_per_design(self):
        design = FsaDesign(n_elements=16)
        a, b = DualPortFsa(design), DualPortFsa(FsaDesign(n_elements=16))
        assert a.port_a._taper_column is b.port_b._taper_column
        assert np.array_equal(a.port_a._taper_column[:, 0], design.element_weights())
        assert not a.port_a._element_index.flags.writeable
