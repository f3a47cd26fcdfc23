"""Tests for the repro.faults subsystem.

Covers the taxonomy and plan machinery, the bitwise no-op contract of
every injection hook (absent plan *and* zero-intensity specs, under
both kernel modes), actual corruption behaviour per site, the ARQ
backoff/timeout satellites, and campaign determinism serial vs a
2-worker pool.
"""

import numpy as np
import pytest

from repro import faults, obs
from repro.channel.scene import Scene2D
from repro.dsp.signal import Signal
from repro.errors import FaultInjectionError, ProtocolError
from repro.faults.campaign import (
    CampaignConfig,
    CampaignPoint,
    CampaignResult,
    check_resilience,
    run_campaign,
)
from repro.hardware.adc import Adc
from repro.hardware.envelope_detector import EnvelopeDetector
from repro.hardware.switch import SpdtSwitch, SwitchState
from repro.protocol.arq import ACK_PAYLOAD, ReliableChannel, RetryBackoff, TransferResult
from repro.protocol.link import MilBackLink
from repro.sim.engine import MilBackSimulator
from tests.kernel_reference import kernels_for

ALL_KINDS = sorted(faults.FAULT_KINDS)


def make_sim(seed=7, distance_m=3.0):
    scene = Scene2D.single_node(distance_m, orientation_deg=10.0)
    return MilBackSimulator(scene, seed=seed)


def pipeline_outputs(seed=7):
    """Deterministic end-to-end observables touching every hook site."""
    sim = make_sim(seed=seed)
    fix = sim.simulate_localization()
    bits = np.random.default_rng(3).integers(0, 2, size=64)
    down = sim.simulate_downlink(bits)
    up = sim.simulate_uplink(bits)
    rng = np.random.default_rng(5)
    analog = Signal(0.4 + 0.3 * rng.standard_normal(4000), 20e6)
    adc_out = Adc(sample_rate_hz=1e6).sample(analog)
    rf = Signal(0.01 * (1.0 + 1j) * np.ones(2000), 200e6)
    video = EnvelopeDetector().detect(rf, rng=11)
    switch = SpdtSwitch()
    switch.set_state(SwitchState.REFLECT)
    reflect = switch.reflection_amplitude()
    switch.set_state(SwitchState.ABSORB)
    absorb = switch.reflection_amplitude()
    return {
        "distance_m": fix.distance_est_m,
        "angle_deg": fix.angle_est_deg,
        "down_rx": down.rx_bits,
        "up_rx": up.rx_bits,
        "adc": adc_out.samples,
        "video": video.samples,
        "reflect": reflect,
        "absorb": absorb,
    }


def assert_outputs_equal(a, b):
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert np.array_equal(a[key], b[key]), key
        else:
            assert a[key] == b[key], key  # exact: bitwise no-op contract


# --- taxonomy -------------------------------------------------------------------


class TestSpec:
    def test_registry_covers_the_paper_failure_modes(self):
        assert len(faults.FAULT_KINDS) == 11
        sites = {kind.site for kind in faults.FAULT_KINDS.values()}
        assert sites == set(faults.FaultSite)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            faults.FaultSpec("flux_capacitor_drift")

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rate_and_intensity_bounds(self, bad):
        with pytest.raises(FaultInjectionError):
            faults.FaultSpec("link_drop", rate=bad)
        with pytest.raises(FaultInjectionError):
            faults.FaultSpec("link_drop", intensity=bad)

    def test_armed_requires_both_rate_and_intensity(self):
        assert faults.FaultSpec("link_drop", rate=0.5, intensity=0.5).armed
        assert not faults.FaultSpec("link_drop", rate=0.0).armed
        assert not faults.FaultSpec("link_drop", intensity=0.0).armed

    def test_with_rate_copies(self):
        spec = faults.FaultSpec("chirp_drop", rate=0.1, intensity=0.7)
        resped = spec.with_rate(0.9)
        assert resped.rate == 0.9 and resped.intensity == 0.7
        assert spec.rate == 0.1

    def test_parse_fault_specs(self):
        specs = faults.parse_fault_specs("link_drop:0.2,adc_saturation:0.5:0.8")
        assert [s.kind for s in specs] == ["link_drop", "adc_saturation"]
        assert specs[0].rate == 0.2 and specs[0].intensity == 1.0
        assert specs[1].rate == 0.5 and specs[1].intensity == 0.8

    @pytest.mark.parametrize("bad", ["", "link_drop:1:1:1", "link_drop:x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(FaultInjectionError):
            faults.parse_fault_specs(bad)


class TestPlan:
    def test_no_plan_by_default(self):
        assert faults.active_plan() is None

    def test_activate_scopes_and_nests(self):
        outer = faults.FaultPlan([faults.FaultSpec("link_drop")], rng=1)
        inner = faults.FaultPlan([faults.FaultSpec("chirp_drop")], rng=2)
        with faults.activate(outer):
            assert faults.active_plan() is outer
            with faults.activate(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_activate_restores_on_error(self):
        plan = faults.FaultPlan([faults.FaultSpec("link_drop")], rng=1)
        with pytest.raises(ProtocolError):
            with faults.activate(plan):
                raise ProtocolError("boom")
        assert faults.active_plan() is None

    def test_record_feeds_ledger_and_obs(self):
        plan = faults.FaultPlan([faults.FaultSpec("chirp_drop")], rng=1)
        before = obs.counter("faults.injected", type="chirp_drop").value
        plan.record("chirp_drop", 3)
        plan.record("chirp_drop", 0)  # no-op
        assert plan.injections == {"chirp_drop": 3}
        assert obs.counter("faults.injected", type="chirp_drop").value == before + 3


# --- the bitwise no-op contract -------------------------------------------------


@pytest.fixture(params=["batched", "reference"])
def kernels_under_test(request):
    """The shipping kernels, then the loop-form oracle patched in."""
    with kernels_for(request.param):
        yield request.param


class TestNoOpFastPath:
    def test_absent_plan_is_bitwise_identical(self, kernels_under_test):
        baseline = pipeline_outputs()
        again = pipeline_outputs()
        assert_outputs_equal(baseline, again)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_intensity_spec_is_bitwise_identical(self, kind, kernels_under_test):
        baseline = pipeline_outputs()
        plan = faults.FaultPlan(
            [faults.FaultSpec(kind, rate=1.0, intensity=0.0)], rng=123
        )
        with faults.activate(plan):
            under_plan = pipeline_outputs()
        assert_outputs_equal(baseline, under_plan)
        assert plan.injections == {}

    def test_unarmed_plan_returns_the_same_objects(self):
        samples = np.ones((4, 2, 8), dtype=np.complex128)
        values = np.ones(16)
        plan = faults.FaultPlan([faults.FaultSpec("chirp_drop", rate=0.0)], rng=0)
        with faults.activate(plan):
            assert faults.corrupt_burst(samples) is samples
            assert faults.adc_input(values) is values
            assert not faults.link_drops("uplink")
        assert faults.corrupt_burst(samples) is samples  # no plan at all


# --- corruption per site --------------------------------------------------------


class TestInjection:
    def test_chirp_drop_zeroes_whole_chirps(self):
        sim_clean = make_sim(seed=11)
        clean_r1, _ = sim_clean._beat_records(toggled_port="both")
        sim = make_sim(seed=11)
        plan = faults.FaultPlan([faults.FaultSpec("chirp_drop", rate=1.0)], rng=4)
        with faults.activate(plan):
            r1, _ = sim._beat_records(toggled_port="both")
        assert plan.injections["chirp_drop"] == len(r1)
        assert all(np.all(rec.samples == 0) for rec in r1)
        assert any(np.any(rec.samples != 0) for rec in clean_r1)

    def test_interference_burst_raises_record_power(self):
        sim_clean = make_sim(seed=11)
        clean_r1, _ = sim_clean._beat_records(toggled_port="both")
        sim = make_sim(seed=11)
        plan = faults.FaultPlan(
            [faults.FaultSpec("interference_burst", rate=1.0, intensity=1.0)], rng=4
        )
        with faults.activate(plan):
            r1, _ = sim._beat_records(toggled_port="both")
        clean_power = sum(rec.mean_power_w() for rec in clean_r1)
        faulty_power = sum(rec.mean_power_w() for rec in r1)
        assert faulty_power > 1.5 * clean_power

    def test_adc_saturation_counts_clips_and_sets_metadata(self):
        rng = np.random.default_rng(5)
        analog = Signal(0.9 + 0.3 * rng.standard_normal(4000), 20e6)
        adc = Adc(sample_rate_hz=1e6)
        clean = adc.sample(analog)
        assert clean.metadata is not None and 0.0 < clean.metadata["clip_fraction"] < 1.0
        before = obs.counter("hardware.adc.clipped_samples").value
        plan = faults.FaultPlan([faults.FaultSpec("adc_saturation", rate=1.0)], rng=9)
        with faults.activate(plan):
            hot = adc.sample(analog)
        assert obs.counter("hardware.adc.clipped_samples").value > before
        assert hot.metadata["clip_fraction"] > clean.metadata["clip_fraction"]
        assert plan.injections["adc_saturation"] > 0

    def test_adc_stuck_bits_corrupts_codes(self):
        analog = Signal(np.linspace(0.0, 1.0, 2000), 20e6)
        adc = Adc(sample_rate_hz=1e6)
        clean = adc.sample(analog)
        plan = faults.FaultPlan([faults.FaultSpec("adc_stuck_bits", rate=1.0)], rng=9)
        with faults.activate(plan):
            stuck = adc.sample(analog)
        assert not np.array_equal(clean.samples, stuck.samples)
        # Stuck-at-1 bits only ever raise codes.
        assert np.all(stuck.samples.real >= clean.samples.real - 1e-12)

    def test_detector_gain_drift_scales_output(self):
        rf = Signal(0.01 * np.ones(2000, dtype=np.complex128), 200e6)
        det = EnvelopeDetector(output_noise_v_per_rt_hz=0.0)
        clean = det.detect(rf, rng=3)
        plan = faults.FaultPlan(
            [faults.FaultSpec("detector_gain_drift", rate=1.0)], rng=21
        )
        with faults.activate(plan):
            drifted = det.detect(rf, rng=3)
        ratio = np.mean(drifted.samples.real) / np.mean(clean.samples.real)
        assert not np.isclose(ratio, 1.0)
        assert 0.5 - 1e-9 <= ratio <= 1.5 + 1e-9  # +/- 50% at intensity 1

    def test_switch_stuck_faults_blend_amplitudes(self):
        switch = SpdtSwitch()
        switch.set_state(SwitchState.ABSORB)
        clean_absorb = switch.reflection_amplitude()
        switch.set_state(SwitchState.REFLECT)
        clean_reflect = switch.reflection_amplitude()
        plan = faults.FaultPlan(
            [faults.FaultSpec("switch_stuck_reflective", rate=1.0, intensity=1.0)],
            rng=2,
        )
        with faults.activate(plan):
            switch.set_state(SwitchState.ABSORB)
            stuck = switch.reflection_amplitude()
        # Fully stuck reflective: the absorb state reflects like REFLECT.
        assert np.isclose(stuck, clean_reflect)
        assert stuck > clean_absorb

    def test_link_drop_raises_protocol_error(self):
        sim = make_sim(seed=7)
        link = MilBackLink(sim)
        plan = faults.FaultPlan([faults.FaultSpec("link_drop", rate=1.0)], rng=3)
        with faults.activate(plan):
            with pytest.raises(ProtocolError):
                link.receive_from_node(b"hello")
        assert plan.injections["link_drop"] == 1

    def test_arq_recovers_from_moderate_link_drops(self):
        sim = make_sim(seed=7)
        plan = faults.FaultPlan([faults.FaultSpec("link_drop", rate=0.3)], rng=3)
        with faults.activate(plan):
            channel = ReliableChannel(MilBackLink(sim), max_attempts=8)
            result = channel.send_reliable(b"payload")
        assert result.delivered
        assert result.attempts > 1
        assert plan.injections["link_drop"] > 0


# --- ARQ satellites: backoff, timeout, ack-failure accounting -------------------


class _ScriptedLink:
    """Stands in for MilBackLink: scripted per-call outcomes.

    Each entry of ``script`` is 'ok', 'bad' (CRC failure) or 'drop'
    (raises). Data and ACK sessions consume from the same sequence.
    """

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def _next(self, payload):
        kind = self.script[self.calls] if self.calls < len(self.script) else "ok"
        self.calls += 1
        if kind == "drop":
            raise ProtocolError("scripted drop")
        delivered = kind == "ok"
        return _ScriptedSession(payload, delivered)

    def receive_from_node(self, payload, bit_rate_bps=10e6):
        return self._next(payload)

    def send_to_node(self, payload, bit_rate_bps=2e6):
        return self._next(payload)


class _ScriptedSession:
    def __init__(self, payload, delivered):
        self.payload_sent = payload
        self.payload_received = payload if delivered else None
        self.crc_ok = delivered
        self.air_time_s = 0.25

    @property
    def delivered(self):
        return self.crc_ok


class TestRetryBackoff:
    def test_first_attempt_never_delayed(self):
        assert RetryBackoff.fixed(0.5).delay_before_attempt_s(1) == 0.0

    def test_fixed_delays(self):
        backoff = RetryBackoff.fixed(0.5)
        assert [backoff.delay_before_attempt_s(k) for k in (2, 3, 4)] == [0.5, 0.5, 0.5]

    def test_exponential_with_cap(self):
        backoff = RetryBackoff.exponential(0.1, multiplier=2.0, max_delay_s=0.35)
        assert np.allclose(
            [backoff.delay_before_attempt_s(k) for k in (2, 3, 4, 5)],
            [0.1, 0.2, 0.35, 0.35],
        )

    def test_validation(self):
        with pytest.raises(ProtocolError):
            RetryBackoff(initial_delay_s=-1.0)
        with pytest.raises(ProtocolError):
            RetryBackoff(multiplier=0.5)


class TestReliableChannelAccounting:
    def test_ack_failure_retries_are_distinguished(self):
        # data ok, ack bad -> retry; data ok, ack ok -> delivered.
        link = _ScriptedLink(["ok", "bad", "ok", "ok"])
        channel = ReliableChannel(link, max_attempts=3)
        result = channel.send_reliable(b"x")
        assert result.delivered and result.attempts == 2
        assert channel.stats.ack_failures == 1
        assert channel.stats.retries_after_ack_failure == 1
        assert channel.stats.data_failures == 0

    def test_exhausted_ack_failures_do_not_count_as_retries(self):
        link = _ScriptedLink(["ok", "bad", "ok", "bad"])
        channel = ReliableChannel(link, max_attempts=2)
        result = channel.send_reliable(b"x")
        assert not result.delivered
        assert channel.stats.ack_failures == 2
        assert channel.stats.retries_after_ack_failure == 1

    def test_backoff_wait_accumulates_into_result_and_stats(self):
        link = _ScriptedLink(["drop", "drop", "ok", "ok"])
        channel = ReliableChannel(
            link, max_attempts=4, backoff=RetryBackoff.exponential(0.1, 2.0)
        )
        result = channel.send_reliable(b"x")
        assert result.delivered and result.attempts == 3
        assert np.isclose(result.wait_time_s, 0.1 + 0.2)
        assert np.isclose(channel.stats.backoff_wait_s, 0.1 + 0.2)
        assert not result.timed_out

    def test_timeout_abandons_transfer(self):
        link = _ScriptedLink(["drop"] * 10)
        channel = ReliableChannel(
            link,
            max_attempts=8,
            backoff=RetryBackoff.fixed(1.0),
            timeout_s=2.5,
        )
        result = channel.send_reliable(b"x")
        assert not result.delivered
        assert result.timed_out
        assert result.attempts == 3  # 0s, +1s, +1s, then +1s would exceed 2.5s
        assert channel.stats.timeouts == 1

    def test_timeout_counts_air_time_too(self):
        # Each failed-CRC data session burns 0.25 s of air time.
        link = _ScriptedLink(["bad"] * 10)
        channel = ReliableChannel(
            link,
            max_attempts=8,
            backoff=RetryBackoff.fixed(0.5),
            timeout_s=1.6,
        )
        result = channel.send_reliable(b"x")
        assert result.timed_out
        # attempts: air 0.25 each + waits 0.5 each -> 0.75/attempt after the
        # first; budget 1.6 allows attempts at elapsed 0, 0.75, 1.5.
        assert result.attempts == 3

    def test_transfer_result_defaults_stay_compatible(self):
        result = TransferResult(True, 1, 0.5, b"x")
        assert result.wait_time_s == 0.0 and not result.timed_out

    def test_ack_payload_unchanged(self):
        assert ACK_PAYLOAD == b"\x06ACK"


# --- campaigns ------------------------------------------------------------------


class TestCampaign:
    def test_seeded_campaign_replays_bit_for_bit_on_two_workers(self):
        config = CampaignConfig(rates=(0.0, 0.3), n_trials=2)
        serial = run_campaign(config, seed=0, max_workers=1)
        pooled = run_campaign(config, seed=0, max_workers=2)
        assert serial.points == pooled.points

    def test_campaign_metrics_match_serial_vs_parallel(self):
        config = CampaignConfig(rates=(0.3,), n_trials=2)

        def campaign_metrics(workers):
            obs.reset()
            run_campaign(config, seed=0, max_workers=workers)
            registry = obs.get_registry().snapshot()
            return {
                name: payload["value"]
                for name, payload in registry.items()
                if name.startswith(("faults.", "protocol.arq."))
            }

        serial = campaign_metrics(1)
        pooled = campaign_metrics(2)
        obs.reset()
        assert serial == pooled
        assert any(name.startswith("faults.campaign.") for name in serial)

    def test_zero_rate_point_is_fault_free_and_delivers(self):
        config = CampaignConfig(rates=(0.0,), n_trials=2)
        result = run_campaign(config, seed=5)
        point = result.points[0]
        assert point.injected == 0
        assert point.n_delivered == point.n_trials
        assert point.mean_attempts == 1.0

    def test_degradation_curve_monotone_in_injections(self):
        config = CampaignConfig(rates=(0.0, 0.8), n_trials=2)
        result = run_campaign(config, seed=0)
        assert result.points[1].injected > result.points[0].injected
        assert result.points[1].mean_attempts >= result.points[0].mean_attempts

    def test_violations_and_check(self):
        config = CampaignConfig(rates=(0.1,), n_trials=4)
        good = CampaignPoint(
            rate=0.1, n_trials=4, n_delivered=4, n_trial_errors=0,
            mean_attempts=1.5, mean_retries_after_ack_failure=0.0,
            range_error_m=0.02, angle_error_deg=0.5,
            downlink_ber=0.0, uplink_ber=0.0, injected=2,
        )
        bad = CampaignPoint(
            rate=0.1, n_trials=4, n_delivered=3, n_trial_errors=0,
            mean_attempts=7.0, mean_retries_after_ack_failure=0.0,
            range_error_m=0.02, angle_error_deg=0.5,
            downlink_ber=0.0, uplink_ber=0.0, injected=2,
        )
        assert CampaignResult(config, (good,)).violations() == []
        broken = CampaignResult(config, (bad,))
        assert len(broken.violations()) == 2
        with pytest.raises(FaultInjectionError):
            check_resilience(broken)

    def test_rows_renders_a_table(self):
        config = CampaignConfig(rates=(0.0,), n_trials=1)
        result = run_campaign(config, seed=1)
        table = result.rows()
        assert "rate" in table and "deliv" in table and "0.00" in table

    def test_ci_invariant_holds_for_the_chaos_smoke_config(self):
        # The exact campaign the CI chaos-smoke job runs (2 workers there).
        config = CampaignConfig(rates=(0.0, 0.2), n_trials=2)
        result = run_campaign(config, seed=0)
        assert result.violations() == []
        assert result.points[1].injected > 0  # the faults really fire

    def test_config_validation(self):
        with pytest.raises(FaultInjectionError):
            CampaignConfig(kinds=("not_a_kind",))
