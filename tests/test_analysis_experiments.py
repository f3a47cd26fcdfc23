"""Analysis helpers and experiment-module tests (small configurations)."""

import numpy as np
import pytest

from repro.analysis.report import format_value, render_table
from repro.analysis.sweeps import run_error_sweep, run_sweep
from repro.experiments import (
    ablations,
    fig10_beam_pattern,
    fig11_oaqfm,
    fig12_localization,
    fig13_orientation,
    fig14_downlink,
    fig15_uplink,
    power_table,
    table1_comparison,
)


class TestReport:
    def test_render_basic(self):
        out = render_table([{"a": 1, "b": "x"}, {"a": 2, "b": "yy"}])
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert len(lines) == 4

    def test_render_title(self):
        out = render_table([{"a": 1}], title="T")
        assert out.startswith("T\n=")

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            render_table([{"a": 1}, {"b": 2}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_table([])

    def test_format_float(self):
        assert format_value(3.14159) == "3.142"
        assert format_value(1e-9) == "1.000e-09"
        assert format_value(True) == "yes"
        assert format_value(float("nan")) == "nan"


class TestSweeps:
    def test_run_sweep_shape(self):
        points = run_sweep([1.0, 2.0], lambda p, rng: p * 10, n_trials=3, seed=0)
        assert len(points) == 2
        assert points[0].values == (10.0, 10.0, 10.0)

    def test_independent_trial_rngs(self):
        points = run_sweep(
            [0.0], lambda p, rng: float(rng.integers(0, 1 << 30)), n_trials=4, seed=1
        )
        assert len(set(points[0].values)) == 4

    def test_reproducible(self):
        trial = lambda p, rng: float(rng.standard_normal())
        a = run_sweep([1.0], trial, 3, seed=2)
        b = run_sweep([1.0], trial, 3, seed=2)
        assert a[0].values == b[0].values

    def test_error_sweep_absolute(self):
        points = run_error_sweep([1.0], lambda p, rng: -5.0, n_trials=2, seed=0)
        assert points[0].values == (5.0, 5.0)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([1.0], lambda p, rng: 0.0, n_trials=0)


class TestFig10:
    def test_scan_coverage(self):
        result = fig10_beam_pattern.run_fig10()
        assert result.scan_coverage_deg == pytest.approx(60.0, abs=3.0)

    def test_min_peak_gain_above_10dbi(self):
        result = fig10_beam_pattern.run_fig10()
        assert result.min_peak_gain_dbi() > 10.0

    def test_ports_mirrored(self):
        result = fig10_beam_pattern.run_fig10()
        for freq in fig10_beam_pattern.SAMPLE_FREQUENCIES_HZ:
            assert result.beam_directions_a_deg[freq] == pytest.approx(
                -result.beam_directions_b_deg[freq], abs=0.01
            )

    def test_main_renders(self):
        assert "Figure 10" in fig10_beam_pattern.main()


class TestFig11:
    def test_symbol_separation(self):
        bench = fig11_oaqfm.run_fig11()
        matrix = bench.symbol_matrix()
        # Symbol 00: neither port; 11: both; 10: A only; 01: B only.
        assert not matrix[0]["Port A detects"] and not matrix[0]["Port B detects"]
        assert not matrix[1]["Port A detects"] and matrix[1]["Port B detects"]
        assert matrix[2]["Port A detects"] and not matrix[2]["Port B detects"]
        assert matrix[3]["Port A detects"] and matrix[3]["Port B detects"]

    def test_tones_straddle_band_center(self):
        bench = fig11_oaqfm.run_fig11()
        assert bench.tone_a_hz > 28e9 > bench.tone_b_hz


class TestFig12:
    def test_ranging_accuracy_bounds(self):
        points = fig12_localization.run_fig12_ranging(
            distances_m=(2.0, 5.0), n_trials=6, seed=7
        )
        by_d = {p.parameter: p for p in points}
        assert by_d[5.0].mean < 0.08  # paper: < 5 cm at 5 m (we allow 8)
        assert by_d[2.0].mean < by_d[5.0].mean + 0.05

    # The paper's Fig. 12b reads a median of 1.1 deg and a p90 of 2.5 deg
    # over its seven azimuths; the envelope cases hold 1.5 and 3.0.
    ENVELOPE_SEEDS = (7, 13, 99, 121)

    @pytest.mark.parametrize(
        "azimuths_deg,n_trials,seed,median_deg,p90_deg",
        [((0.0, 10.0), 8, 8, 2.5, np.inf)]
        + [
            (fig12_localization.AOA_AZIMUTHS_DEG, 20, seed, 1.5, 3.0)
            for seed in ENVELOPE_SEEDS
        ],
        ids=["two-azimuths-seed8"] + [f"paper-envelope-seed{s}" for s in ENVELOPE_SEEDS],
    )
    def test_angle_cdf_medians(self, azimuths_deg, n_trials, seed, median_deg, p90_deg):
        errors = fig12_localization.run_fig12_angle(
            azimuths_deg=azimuths_deg, n_trials=n_trials, seed=seed
        )
        assert np.median(errors) < median_deg
        assert np.percentile(errors, 90) < p90_deg


class TestFig13:
    def test_node_error_under_3deg(self):
        points = fig13_orientation.run_fig13_node(
            orientations_deg=(-10.0, 10.0), n_trials=6, seed=9
        )
        assert max(p.mean for p in points) < 3.0

    def test_ap_error_reasonable_outside_bump(self):
        points = fig13_orientation.run_fig13_ap(
            orientations_deg=(-15.0, 15.0), n_trials=6, seed=10
        )
        assert max(p.mean for p in points) < 3.0

    def test_fig5_traces(self):
        traces = fig13_orientation.run_fig5_traces(orientations_deg=(0.0, 15.0))
        assert set(traces) == {0.0, 15.0}
        for trace in traces.values():
            assert trace.samples.size > 0


class TestFig14:
    def test_sinr_monotonic_with_distance(self):
        figure = fig14_downlink.run_fig14(
            distances_m=(2.0, 6.0, 10.0), n_trials=4, seed=11
        )
        sinrs = [p.mean for p in figure.sinr_points]
        assert sinrs[0] > sinrs[1] > sinrs[2]

    def test_12db_or_more_at_10m(self):
        figure = fig14_downlink.run_fig14(distances_m=(10.0,), n_trials=4, seed=12)
        assert figure.sinr_at(10.0) > 12.0

    def test_rate_ceiling(self):
        figure = fig14_downlink.run_fig14(distances_m=(2.0,), n_trials=2, seed=13)
        assert figure.max_downlink_rate_bps == pytest.approx(36e6)


class TestFig15:
    def test_rate_gap(self):
        figure = fig15_uplink.run_fig15(n_trials=3, seed=14)
        # Beyond the cap region, 4x bandwidth costs 3-8 dB.
        assert 2.0 < figure.rate_gap_db(6.0) < 9.0

    def test_usable_at_8m_10mbps(self):
        figure = fig15_uplink.run_fig15(n_trials=3, seed=15)
        snr_8m = next(p.mean for p in figure.snr_10mbps if p.parameter == 8.0)
        assert snr_8m > 10.0

    def test_max_rate(self):
        figure = fig15_uplink.run_fig15(n_trials=2, seed=16)
        assert figure.max_uplink_rate_bps == pytest.approx(160e6)


class TestTable1AndPower:
    def test_table1_rows(self):
        rows = table1_comparison.run_table1()
        assert len(rows) == 4

    def test_power_report_matches_paper(self):
        report = power_table.run_power_table()
        assert report.downlink_w == pytest.approx(18e-3)
        assert report.uplink_w == pytest.approx(32e-3)
        assert report.uplink_energy_j_per_bit == pytest.approx(0.8e-9)

    def test_power_rows_include_mmtag(self):
        rows = power_table.report_rows(power_table.run_power_table())
        metrics = [r["Metric"] for r in rows]
        assert any("mmTag" in m for m in metrics)


class TestAblations:
    def test_background_subtraction_matters(self):
        result = ablations.run_background_subtraction_ablation()
        assert result.error_with_subtraction_m < 0.1
        assert result.error_without_subtraction_m > 1.0

    def test_switch_rate_rows(self):
        rows = ablations.run_switch_rate_ablation(toggle_rates_hz=(20e6, 80e6))
        assert rows[0]["Max uplink rate (Mbps)"] == pytest.approx(40.0)
        assert rows[1]["Max uplink rate (Mbps)"] == pytest.approx(160.0)

    def test_detector_bandwidth_rows(self):
        rows = ablations.run_detector_bandwidth_ablation(bandwidths_hz=(40e6,))
        assert rows[0]["Max downlink rate (Mbps)"] == pytest.approx(36.0)

    def test_fsa_size_monotonic_gain(self):
        rows = ablations.run_fsa_size_ablation(element_counts=(8, 24))
        assert rows[1]["Peak gain (dBi)"] > rows[0]["Peak gain (dBi)"]
        assert rows[1]["Beamwidth (deg)"] < rows[0]["Beamwidth (deg)"]

    def test_modulation_ablation_throughput(self):
        rows = ablations.run_modulation_ablation(n_bits=32)
        assert rows[0]["Throughput (Mbps)"] == 2 * rows[1]["Throughput (Mbps)"]

    def test_subtraction_burst_rows(self):
        rows = ablations.run_subtraction_burst_ablation(n_chirps_options=(3, 5), n_trials=2)
        assert [(r["Chirps"], r["Pairs"]) for r in rows] == [(3, 2), (5, 4)]
        for row in rows:
            assert 0.0 <= row["Mean error (cm)"] <= row["Worst error (cm)"] < 5.0


class TestBootstrapCi:
    def test_ci_brackets_mean(self):
        points = run_sweep([1.0], lambda p, rng: float(rng.normal(5.0, 1.0)), 40, seed=3)
        low, high = points[0].mean_ci95()
        assert low < points[0].mean < high

    def test_ci_narrows_with_samples(self):
        few = run_sweep([1.0], lambda p, rng: float(rng.normal(0, 1)), 8, seed=4)[0]
        many = run_sweep([1.0], lambda p, rng: float(rng.normal(0, 1)), 128, seed=4)[0]
        few_width = np.subtract(*reversed(few.mean_ci95()))
        many_width = np.subtract(*reversed(many.mean_ci95()))
        assert many_width < few_width

    def test_single_value_degenerate(self):
        points = run_sweep([1.0], lambda p, rng: 7.0, 1, seed=5)
        assert points[0].mean_ci95() == (7.0, 7.0)

    def test_deterministic(self):
        points = run_sweep([1.0], lambda p, rng: float(rng.normal()), 16, seed=6)
        assert points[0].mean_ci95() == points[0].mean_ci95()
