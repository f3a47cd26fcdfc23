"""Per-layer tracing from outside the program.

The traced run wraps each layer's public callables (the ``LAYERS``
table) with timing shims installed by the benchmark itself — nothing
under ``src/`` changes. Each shim pushes a frame on entry and, on exit,
charges the layer its *self* time: the call's duration minus the time
its wrapped children covered. Every operation runs under a root frame,
so the root's self time is exactly the wall time no layer claimed
(``unattributed_frac``).

A callable is rebound wherever the program can reach it: class
attributes for methods, and every ``repro.*`` module global bound to the
same function object for plain functions (so ``from x import f`` call
sites are covered too). ``WITNESSES`` pairs wrapped callables with the
program's own counters; equal counts show no call bypassed a shim.

Full span records are kept in memory, in the ``repro.obs`` trace JSONL
shape, for whole operations until ``span_budget`` spans are held.
Callables in ``HOT`` (leaves that run more than 1000 times per op) never
get a span per call: each parent span carries one aggregate child per
hot leaf, with the call count and summed time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable

__all__ = [
    "LAYERS",
    "HOT",
    "WITNESSES",
    "LayerTracer",
    "counter_sum",
    "counter_values",
    "per_layer_metrics",
]

#: layer name -> wrapped callables, as ``module:attribute`` paths.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("protocol", (
        "repro.protocol.link:MilBackLink.localize",
        "repro.protocol.link:MilBackLink.send_to_node",
        "repro.protocol.link:MilBackLink.receive_from_node",
        "repro.protocol.arq:ReliableChannel.send_reliable",
    )),
    ("sim.engine", (
        "repro.sim.engine:MilBackSimulator.__init__",
        "repro.sim.engine:MilBackSimulator.simulate_localization",
        "repro.sim.engine:MilBackSimulator.simulate_localization_array",
        "repro.sim.engine:MilBackSimulator.simulate_field1",
        "repro.sim.engine:MilBackSimulator.simulate_downlink",
        "repro.sim.engine:MilBackSimulator.simulate_uplink",
        "repro.sim.engine:MilBackSimulator.simulate_ap_orientation",
        "repro.sim.engine:MilBackSimulator.simulate_node_orientation",
        "repro.sim.engine:MilBackSimulator.observe_burst",
    )),
    ("sim.cache", (
        "repro.sim.cache:chirp_grid",
        "repro.sim.cache:static_beat_field",
        "repro.sim.cache:fsa_gain_sweep",
        "repro.sim.cache:backscatter_gain_db",
        "repro.sim.cache:downlink_port_gain_db",
    )),
    ("kernels.burst", (
        "repro.kernels.burst:draw_variates",
        "repro.kernels.burst:synthesize_burst",
    )),
    ("kernels.rxchain", (
        "repro.kernels.rxchain:windowed_spectra",
        "repro.kernels.rxchain:mean_abs_pair_diff",
        "repro.kernels.rxchain:complex_bin_values",
        "repro.kernels.rxchain:masked_pair_profile",
    )),
    ("kernels.dsp", (
        "repro.kernels.dsp:local_maxima_candidates",
        "repro.kernels.dsp:integrate_slots",
    )),
    ("kernels.aoa", (
        "repro.kernels.aoa:music_spectrum",
        "repro.kernels.aoa:bartlett_spectrum",
        "repro.kernels.aoa:steering_matrix",
        "repro.kernels.aoa:noise_subspace",
    )),
    ("ap", (
        "repro.ap.fmcw:FmcwProcessor.estimate_range",
        "repro.ap.fmcw:FmcwProcessor.chirp_spectra",
        "repro.ap.aoa:AoaEstimator.estimate",
        "repro.ap.music:ArrayAoaEstimator.estimate",
        "repro.ap.orientation:ApOrientationEstimator.estimate",
        "repro.ap.uplink_rx:UplinkReceiver.decode",
    )),
    ("hardware", (
        "repro.hardware.envelope_detector:EnvelopeDetector.detect",
        "repro.hardware.adc:Adc.sample",
        "repro.hardware.mcu:Microcontroller.sample_detector",
    )),
    ("node", (
        "repro.node.demodulator:OaqfmDemodulator.decode",
        "repro.node.demodulator:OaqfmDemodulator.decode_ook",
        "repro.node.firmware:NodeFirmware.classify_field1",
        "repro.node.orientation:NodeOrientationEstimator.estimate",
    )),
    ("channel", (
        "repro.channel.scene:Scene2D.single_node",
        "repro.channel.scene:Scene2D.with_clutter",
    )),
    ("netsim.runner", ("repro.netsim.runner:run_scenario",)),
    ("netsim.core", (
        "repro.netsim.core:NetworkSimulation.run",
        "repro.netsim.core:EventQueue.push",
        "repro.netsim.core:EventQueue.pop",
    )),
    ("netsim.linkmodel", (
        "repro.netsim.linkmodel:FleetLinkModel.observe",
        "repro.netsim.linkmodel:FleetLinkModel.ap_interference_dbm",
        "repro.netsim.linkmodel:FleetLinkModel.uplink_sinr_db",
    )),
    ("netsim.fleet", (
        "repro.netsim.fleet:FleetLink.send_to_node",
        "repro.netsim.fleet:FleetLink.receive_from_node",
        "repro.netsim.scenarios:build_fleet",
    )),
    ("datasets.generator", ("repro.datasets.generator:generate_dataset",)),
    ("datasets.writer", (
        "repro.datasets.writer:ShardWriter.append_block",
        "repro.datasets.writer:ShardWriter.finalize",
    )),
    ("parallel", (
        "repro.parallel.pool:PersistentPool.map",
        "repro.parallel.pool:PersistentPool.imap_chunks",
    )),
)

#: Leaves that run more than 1000 times per op on some workload.
HOT = frozenset({
    "repro.netsim.core:EventQueue.push",
    "repro.netsim.core:EventQueue.pop",
    "repro.netsim.linkmodel:FleetLinkModel.observe",
    "repro.netsim.linkmodel:FleetLinkModel.ap_interference_dbm",
    "repro.netsim.linkmodel:FleetLinkModel.uplink_sinr_db",
})

#: wrapped callable -> (counter name, required labels) the program bumps
#: exactly once per call. A name ending in "." matches every counter
#: under that prefix (e.g. both kernel dispatch modes).
WITNESSES: dict[str, tuple[str, dict[str, str]]] = {
    "repro.kernels.burst:synthesize_burst": ("kernels.dispatch.", {"kernel": "burst.synthesize"}),
    **{
        f"repro.kernels.rxchain:{fn}": ("kernels.dispatch.", {"kernel": f"rxchain.{fn}"})
        for fn in ("windowed_spectra", "mean_abs_pair_diff", "complex_bin_values",
                   "masked_pair_profile")
    },
    **{
        f"repro.kernels.dsp:{fn}": ("kernels.dispatch.", {"kernel": f"dsp.{fn}"})
        for fn in ("local_maxima_candidates", "integrate_slots")
    },
    **{
        f"repro.kernels.aoa:{fn}": ("kernels.dispatch.", {"kernel": f"aoa.{fn}"})
        for fn in ("music_spectrum", "bartlett_spectrum")
    },
    **{
        f"repro.sim.engine:MilBackSimulator.{method}": (f"engine.{trial}.trials", {})
        for method, trial in (
            ("simulate_localization", "localization"),
            ("simulate_localization_array", "localization_array"),
            ("simulate_field1", "field1"),
            ("simulate_downlink", "downlink"),
            ("simulate_uplink", "uplink"),
            ("simulate_ap_orientation", "ap_orientation"),
            ("simulate_node_orientation", "node_orientation"),
            ("observe_burst", "observe"),
        )
    },
    "repro.netsim.core:EventQueue.pop": ("netsim.events.processed", {}),
}


#: The scene-invariant caches of ``repro.sim.cache``.
SIM_CACHES = ("chirp_grid", "fsa_sweep", "clutter_paths", "link_scalars", "static_field")


def _hit_ratio(counters: dict[str, Any], *caches: str) -> float:
    hits = sum(counter_sum(counters, "cache.hits", cache=c) for c in caches)
    misses = sum(counter_sum(counters, "cache.misses", cache=c) for c in caches)
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(
    ledgers: list[dict[str, Any]],
    counters: dict[str, Any],
    tracing_overhead_frac: float,
) -> dict[str, float]:
    """The per-layer metrics of one workload's traced segments.

    Layer time is reported as a share of traced op wall time (shares of
    all layers plus ``unattributed_frac`` sum to 1); ``traced_op_ms``
    converts a share back to milliseconds per op.
    """
    ops = sum(ledger["ops"] for ledger in ledgers)
    wall_s = sum(ledger["wall_s"] for ledger in ledgers)
    metrics: dict[str, float] = {}
    for layer, _ in LAYERS:
        self_s = sum(ledger["layers"][layer]["self_s"] for ledger in ledgers)
        calls = sum(ledger["layers"][layer]["calls"] for ledger in ledgers)
        metrics[f"{layer}.self_frac"] = self_s / wall_s
        metrics[f"{layer}.calls_per_op"] = calls / ops
    metrics["unattributed_frac"] = sum(x["unattributed_s"] for x in ledgers) / wall_s
    metrics["traced_op_ms"] = wall_s / ops * 1e3
    metrics["tracing_overhead_frac"] = tracing_overhead_frac
    # A session is lost when its span raised (Field 1 unreadable or
    # misclassified, no localization fix, a fault drop) or its CRC failed.
    sessions = counter_sum(counters, "protocol.sessions")
    field1_failures = counter_sum(counters, "span.protocol.field1.errors")
    crc_failures = counter_sum(counters, "protocol.crc_failures")
    lost = counter_sum(counters, "span.protocol.session.errors") + crc_failures
    metrics.update({
        "sim.cache.hit_ratio": _hit_ratio(counters, *SIM_CACHES),
        "kernels.aoa.steering_hit_ratio": _hit_ratio(counters, "aoa_steering"),
        "netsim.linkmodel.hit_ratio": _hit_ratio(counters, "netsim_link"),
        "netsim.events": counter_sum(counters, "netsim.events.processed") / ops,
        "netsim.handoffs": counter_sum(counters, "netsim.handoffs") / ops,
        "protocol.delivered_ratio": (sessions - lost) / sessions if sessions else 0.0,
        "protocol.field1_failures": field1_failures / ops,
        "protocol.crc_failures": crc_failures / ops,
        "parallel.bytes_shipped": counter_sum(counters, "parallel.bytes_shipped") / ops,
        "datasets.writer.bytes": counter_sum(counters, "datasets.shard_bytes") / ops,
    })
    return metrics


def counter_values() -> dict[str, tuple[str, dict[str, str], float]]:
    """Every counter of the program's registry: key -> (name, labels, value)."""
    from repro import obs

    return {
        key: (metric.name, dict(metric.labels), metric.value)
        for key, metric in obs.get_registry().items()
        if isinstance(metric, obs.Counter)
    }


def counter_sum(
    counters: dict[str, tuple[str, dict[str, str], float]],
    name: str,
    **labels: str,
) -> float:
    """Sum of counters named ``name`` (a prefix when it ends in '.')."""
    total = 0.0
    for metric_name, metric_labels, value in counters.values():
        matches = (
            metric_name.startswith(name) if name.endswith(".") else metric_name == name
        )
        if matches and all(metric_labels.get(k) == v for k, v in labels.items()):
            total += value
    return total


class _Frame:
    __slots__ = ("target", "start", "child_s", "record", "agg")

    def __init__(self, target: int, start: float, record: dict | None) -> None:
        self.target = target
        self.start = start
        self.child_s = 0.0
        self.record = record
        self.agg: dict[int, list[float]] | None = None


class LayerTracer:
    """Installs the shims and keeps the per-layer ledger in memory."""

    ROOT = "bench.op"

    def __init__(self, span_budget: int) -> None:
        self.targets: list[str] = [t for _, targets in LAYERS for t in targets]
        self.layer_of: list[str] = [layer for layer, targets in LAYERS for _ in targets]
        #: Span names: layer, then the callable's qualified name.
        self.span_names = [
            f"{layer}.{target.split(':')[1]}"
            for layer, target in zip(self.layer_of, self.targets)
        ]
        self.calls = [0] * len(self.targets)
        self.self_s = [0.0] * len(self.targets)
        self.root_self_s = 0.0
        self.wall_s = 0.0
        self.ops = 0
        self.spans: list[dict[str, Any]] = []
        self._span_budget = span_budget
        self._recording = False
        self._hot = [t in HOT for t in self.targets]
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._op_meta: dict[str, Any] = {}
        self._undo: list[Callable[[], None]] = []

    # --- shims -----------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; ``uninstall`` restores the originals."""
        # Import every target module first, so by-name imports between
        # them already exist when plain functions are rebound.
        modules = [importlib.import_module(t.split(":")[0]) for t in self.targets]
        for index, (target, module) in enumerate(zip(self.targets, modules)):
            attr_path = target.split(":")[1]
            if "." in attr_path:
                class_name, method = attr_path.split(".")
                self._wrap_method(index, getattr(module, class_name), method)
            else:
                self._wrap_function(index, getattr(module, attr_path))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap_method(self, index: int, cls: type, name: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._shim(index, raw.__func__))
        else:
            wrapped = self._shim(index, raw)
        setattr(cls, name, wrapped)
        self._undo.append(lambda: setattr(cls, name, raw))

    def _wrap_function(self, index: int, fn: Callable[..., Any]) -> None:
        shim = self._shim(index, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, shim)
                    self._undo.append(functools.partial(setattr, module, attr, fn))

    def _shim(self, index: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            # The span stays open while the consumer handles each yielded
            # item, so the consumer's own wrapped calls nest under it.
            @functools.wraps(fn)
            def generator_shim(*args: Any, **kwargs: Any) -> Any:
                frame = enter(index)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    leave(frame)

            return generator_shim

        if self._hot[index]:
            # Leaves only: no frame, the duration goes straight to the
            # layer and to the caller's child time.
            stack, calls, self_s, perf = self._stack, self.calls, self.self_s, time.perf_counter

            @functools.wraps(fn)
            def hot_shim(*args: Any, **kwargs: Any) -> Any:
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf() - start
                    calls[index] += 1
                    self_s[index] += duration
                    if stack:
                        parent = stack[-1]
                        parent.child_s += duration
                        if parent.record is not None:
                            self._aggregate(parent, index, start, duration)

            return hot_shim

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            frame = enter(index)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return shim

    # --- frames ----------------------------------------------------------------------

    def _enter(self, target: int) -> _Frame:
        record = None
        if self._recording:
            record = self._new_record(self.span_names[target], self._stack)
        frame = _Frame(target, time.perf_counter(), record)
        self._stack.append(frame)
        return frame

    def _leave(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # a generator closed out of order
            stack.remove(frame)
        duration = end - frame.start
        self.calls[frame.target] += 1
        self.self_s[frame.target] += duration - frame.child_s
        if stack:
            stack[-1].child_s += duration
        if frame.record is not None:
            self._close_record(frame, end)

    @staticmethod
    def _aggregate(parent: _Frame, target: int, start: float, duration: float) -> None:
        if parent.agg is None:
            parent.agg = {}
        entry = parent.agg.setdefault(target, [0, 0.0, start])
        entry[0] += 1
        entry[1] += duration

    def _new_record(self, name: str, stack: list[_Frame]) -> dict[str, Any]:
        parent = stack[-1].record if stack else None
        record = {
            "type": "span",
            "name": name,
            "span_id": self._next_id,
            "parent_id": None if parent is None else parent["span_id"],
            "depth": len(stack),
            "error": None,
            "meta": dict(self._op_meta),
        }
        self._next_id += 1
        return record

    def _close_record(self, frame: _Frame, end: float) -> None:
        record = frame.record
        assert record is not None
        record["start_s"] = frame.start
        record["end_s"] = end
        record["duration_s"] = end - frame.start
        self.spans.append(record)
        for target, (count, total_s, first_start) in (frame.agg or {}).items():
            child = self._new_record(self.span_names[target], [frame])
            child["depth"] = record["depth"] + 1
            child["meta"].update(aggregate=True, calls=count)
            child.update(
                start_s=first_start, end_s=first_start + total_s, duration_s=total_s
            )
            self.spans.append(child)

    # --- operations ------------------------------------------------------------------

    def begin_op(self, **meta: Any) -> None:
        """Open the root frame of one operation (meta tags its spans)."""
        self._op_meta = meta
        self._recording = len(self.spans) < self._span_budget
        record = self._new_record(self.ROOT, []) if self._recording else None
        self._stack.append(_Frame(-1, time.perf_counter(), record))

    def end_op(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        assert frame.target == -1 and not self._stack
        duration = end - frame.start
        self.wall_s += duration
        self.root_self_s += duration - frame.child_s
        self.ops += 1
        self._recording = False
        if frame.record is not None:
            self._close_record(frame, end)

    def ledger(self) -> dict[str, Any]:
        """Per-layer self time and calls, plus the unclaimed root time."""
        layers: dict[str, dict[str, float]] = {layer: {"self_s": 0.0, "calls": 0}
                                               for layer, _ in LAYERS}
        for i, layer in enumerate(self.layer_of):
            layers[layer]["self_s"] += self.self_s[i]
            layers[layer]["calls"] += self.calls[i]
        return {
            "ops": self.ops,
            "wall_s": self.wall_s,
            "unattributed_s": self.root_self_s,
            "layers": layers,
            "target_calls": dict(zip(self.targets, self.calls)),
        }
