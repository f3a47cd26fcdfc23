"""Tests for :mod:`repro.obs.stream` — live heartbeats for long runs."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.analysis.sweeps import run_sweep
from repro.datasets import DatasetConfig, generate_dataset
from repro.errors import ConfigurationError
from repro.obs import stream
from repro.obs.stream import (
    HeartbeatEmitter,
    _health_from_deltas,
    resolve_interval,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()
    stream.configure(interval_s=0.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestResolveInterval:
    def test_disabled_by_default(self):
        assert resolve_interval(None) == 0.0

    def test_rejects_garbage_and_negative(self):
        with pytest.raises(ConfigurationError):
            resolve_interval(-1.0)

    @pytest.mark.parametrize("interval_s", [float("nan"), float("inf")])
    def test_configure_rejects_non_finite(self, interval_s):
        with pytest.raises(ConfigurationError, match="finite"):
            stream.configure(interval_s, stream=io.StringIO())
        assert stream.get_emitter() is None


class TestHeartbeatEmitter:
    def _emitter(self, interval_s=1.0, **kwargs):
        clock = FakeClock()
        sink = io.StringIO()
        emitter = HeartbeatEmitter(
            interval_s, stream=sink, clock=clock, **kwargs
        )
        return emitter, clock, sink

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            HeartbeatEmitter(0.0)

    def test_rejects_nan_interval(self):
        with pytest.raises(ConfigurationError, match="finite"):
            HeartbeatEmitter(float("nan"), stream=io.StringIO())

    def test_rate_limiting(self):
        emitter, clock, sink = self._emitter(interval_s=1.0)
        assert emitter.tick(1, 10) is not None  # first tick always beats
        assert emitter.tick(2, 10) is None  # interval not elapsed
        clock.now = 1.5
        beat = emitter.tick(3, 10)
        assert beat is not None and beat.done == 3
        assert emitter.tick(4, 10, force=True) is not None
        assert len(sink.getvalue().splitlines()) == 3

    def test_progress_rate_and_eta(self):
        emitter, clock, _ = self._emitter(interval_s=1.0)
        clock.now = 2.0
        beat = emitter.tick(4, 10)
        assert beat.fraction == pytest.approx(0.4)
        assert beat.rate_per_s == pytest.approx(2.0)
        assert beat.eta_s == pytest.approx(3.0)
        rendered = beat.render()
        assert "4/10" in rendered and "(40%)" in rendered
        assert "eta=3.0s" in rendered

    def test_zero_rate_has_no_eta(self):
        emitter, clock, _ = self._emitter(interval_s=1.0)
        clock.now = 1.0
        beat = emitter.tick(0, 10)
        assert beat.eta_s is None
        assert "eta" not in beat.render()

    def test_label_defaults_to_current_span(self):
        emitter, _, _ = self._emitter()
        with obs.span("faults.campaign"):
            beat = emitter.tick(1, 2)
        assert beat.label == "faults.campaign"
        beat = emitter.tick(2, 2, label="custom", force=True)
        assert beat.label == "custom"
        beat = emitter.tick(2, 2, force=True)
        assert beat.label == "run"  # no open span

    def test_counter_deltas_between_beats(self):
        emitter, clock, _ = self._emitter(interval_s=1.0)
        obs.counter("sweep.trials").inc(5)
        obs.gauge("parallel.workers").set(4)  # gauges never enter deltas
        beat = emitter.tick(1, 4)
        assert beat.counters["sweep.trials"] == 5.0
        assert "parallel.workers" not in beat.counters
        clock.now = 2.0
        obs.counter("sweep.trials").inc(3)
        beat = emitter.tick(2, 4)
        assert beat.counters["sweep.trials"] == 3.0  # delta, not total
        assert "sweep.trials+3" in beat.render()
        clock.now = 4.0
        beat = emitter.tick(3, 4)
        # Only the emitter's own bookkeeping moved since the last beat.
        assert set(beat.counters) == {"stream.heartbeats"}

    def test_heartbeats_counted(self):
        emitter, clock, _ = self._emitter(interval_s=1.0)
        for i in range(3):
            clock.now = float(i * 2)
            emitter.tick(i, 3)
        assert obs.counter("stream.heartbeats").value == 3.0

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "beats.jsonl"
        clock = FakeClock()
        emitter = HeartbeatEmitter(
            1.0, stream=io.StringIO(), jsonl_path=path, clock=clock
        )
        clock.now = 1.0
        emitter.tick(1, 2)
        clock.now = 3.0
        emitter.tick(2, 2)
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["type"] == "heartbeat" for r in records)
        assert records[1]["done"] == 2


class TestHealthSection:
    def test_cache_ratio_from_labelled_deltas(self):
        deltas = {
            "cache.hits{cache=gain}": 6.0,
            "cache.hits{cache=steering}": 3.0,
            "cache.misses{cache=gain}": 1.0,
        }
        assert _health_from_deltas(deltas) == {"cache": "90%"}

    def test_shipped_bytes_scale_units(self):
        assert _health_from_deltas(
            {"parallel.bytes_shipped": 2048.0}
        ) == {"shipped": "2.0KiB"}
        assert _health_from_deltas(
            {"parallel.bytes_shipped": float(4 << 20)}
        ) == {"shipped": "4.0MiB"}

    def test_quiet_deltas_give_no_vitals(self):
        assert _health_from_deltas({}) == {}
        assert _health_from_deltas({"sweep.trials": 5.0}) == {}

    def test_vitals_rendered_between_eta_and_counters(self):
        emitter = HeartbeatEmitter(1.0, stream=io.StringIO(), clock=FakeClock())
        obs.counter("cache.hits", cache="gain").inc(3)
        obs.counter("cache.misses", cache="gain").inc(1)
        obs.counter("parallel.bytes_shipped").inc(4096)
        beat = emitter.tick(1, 4, force=True)
        assert beat.health == {"cache": "75%", "shipped": "4.0KiB"}
        rendered = beat.render()
        assert " cache=75% shipped=4.0KiB [" in rendered
        assert rendered.index("1/4") < rendered.index("cache=75%")

    def test_health_lands_in_jsonl_record(self):
        obs.counter("cache.hits", cache="gain").inc(1)
        obs.counter("cache.misses", cache="gain").inc(1)
        emitter = HeartbeatEmitter(1.0, stream=io.StringIO(), clock=FakeClock())
        # The constructor snapshots counters; move one afterwards.
        obs.counter("cache.hits", cache="gain").inc(3)
        obs.counter("cache.misses", cache="gain").inc(1)
        beat = emitter.tick(2, 4, force=True)
        assert beat.to_dict()["health"] == {"cache": "75%"}


class TestModuleWiring:
    def test_disabled_tick_is_noop(self):
        assert stream.configure(interval_s=0.0) is None
        assert stream.get_emitter() is None
        assert stream.tick(1, 2) is None

    def test_configure_installs_and_clears(self):
        sink = io.StringIO()
        emitter = stream.configure(interval_s=0.001, stream=sink)
        assert stream.get_emitter() is emitter
        assert stream.tick(1, 2, force=True) is not None
        assert "1/2" in sink.getvalue()
        assert stream.configure(interval_s=0.0) is None
        assert stream.get_emitter() is None


class TestSweepHeartbeats:
    def _trial(self, parameter, rng):
        return float(parameter + rng.normal())

    def test_serial_sweep_beats_and_results_unchanged(self):
        quiet = run_sweep([1.0, 2.0], self._trial, n_trials=4, seed=7)
        sink = io.StringIO()
        stream.configure(interval_s=1e-9, stream=sink)
        beating = run_sweep([1.0, 2.0], self._trial, n_trials=4, seed=7)
        assert [p.values for p in beating] == [p.values for p in quiet]
        lines = sink.getvalue().splitlines()
        assert lines
        assert any("sweep.point" in line and "/8" in line for line in lines)

    def test_parallel_sweep_beats_and_results_bitwise_identical(self):
        quiet = run_sweep([1.0, 2.0], self._trial, n_trials=4, seed=7)
        sink = io.StringIO()
        stream.configure(interval_s=1e-9, stream=sink)
        beating = run_sweep(
            [1.0, 2.0], self._trial, n_trials=4, seed=7, max_workers=2
        )
        assert [p.values for p in beating] == [p.values for p in quiet]
        assert sink.getvalue().splitlines()


class TestDatasetHeartbeats:
    CONFIG = DatasetConfig(
        scenes=("clear", "blocked"),
        distances_m=(2.0, 3.0, 4.0),
        n_trials=1,
        seed=7,
        n_spectrum_bins=32,
    )

    @staticmethod
    def _files(out_dir):
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    def test_serial_generation_beats_once_per_block(self, tmp_path):
        assert self.CONFIG.n_rows == 6
        generate_dataset(self.CONFIG, tmp_path / "quiet", block_rows=2)
        sink = io.StringIO()
        stream.configure(interval_s=1e-9, stream=sink)
        generate_dataset(self.CONFIG, tmp_path / "beating", block_rows=2)
        lines = sink.getvalue().splitlines()
        assert [line.split()[1:3] for line in lines] == [
            ["datasets.generate", f"{done}/3"] for done in (1, 2, 3)
        ]
        assert " 3/3 (100%) " in lines[-1]
        assert self._files(tmp_path / "beating") == self._files(tmp_path / "quiet")
