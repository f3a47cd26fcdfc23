"""Corpus schema: the row grid, the column layout, and their versioning.

A corpus is defined *entirely* by a :class:`DatasetConfig` — the sweep
axes (scene kind × distance × azimuth × orientation × fault rate ×
radial velocity), the trials-per-cell count, the master seed, and the
feature width. Row ``i`` of the corpus is a pure function of
``(config, i)``: :meth:`DatasetConfig.row_params` decomposes the index
into grid coordinates (trial fastest-varying), and the row's RNG
streams derive from ``(seed, i)`` alone (per block through
:func:`repro.utils.rng.indexed_rng_rows`, bit for bit
:func:`repro.utils.rng.indexed_rngs`). Nothing about workers, chunking,
sharding, or resume order can therefore change a single byte of any row.

``SCHEMA_VERSION`` names the column layout below. Any change to field
names, dtypes, shapes, ordering, or the index→parameter decomposition
must bump it; readers refuse corpora from a different version rather
than silently misinterpreting columns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.faults import FAULT_KINDS

__all__ = [
    "SCHEMA_VERSION",
    "SCENE_KINDS",
    "DatasetConfig",
    "FieldSpec",
    "RowParams",
    "row_fields",
]

#: Bump on any change to the column layout or row-index decomposition.
SCHEMA_VERSION = 1

#: Scene archetypes a corpus can sample.
#:
#: ``clear``     — node only, no clutter (pure LOS).
#: ``furnished`` — the default indoor clutter set (LOS with multipath).
#: ``blocked``   — furnished plus a strong scatterer planted on the
#:                 AP→node ray (obstructed-path regime; labeled NLOS).
SCENE_KINDS = ("clear", "furnished", "blocked")


@dataclass(frozen=True)
class FieldSpec:
    """One column of the corpus: name, storage dtype, per-row shape."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    group: str  # "index" | "feature" | "label" | "estimate"
    doc: str


def row_fields(n_spectrum_bins: int, n_rx: int = 2) -> tuple[FieldSpec, ...]:
    """The full column layout for one corpus row, in canonical order."""
    return (
        FieldSpec("row_index", "uint64", (), "index", "global row index in the grid"),
        FieldSpec(
            "beat_spectrum",
            "float32",
            (n_spectrum_bins,),
            "feature",
            "pair-subtracted beat magnitude spectrum, pooled to fixed bins",
        ),
        FieldSpec(
            "port_power_dbm",
            "float32",
            (2,),
            "feature",
            "received backscatter power per FSA port (A, B) at the AP",
        ),
        FieldSpec(
            "envelope_mean_v",
            "float32",
            (n_rx,),
            "feature",
            "mean beat-envelope magnitude per RX antenna",
        ),
        FieldSpec("x_m", "float32", (), "label", "node x in AP frame"),
        FieldSpec("y_m", "float32", (), "label", "node y in AP frame"),
        FieldSpec("distance_m", "float32", (), "label", "true AP–node distance"),
        FieldSpec("azimuth_deg", "float32", (), "label", "true node azimuth"),
        FieldSpec("orientation_deg", "float32", (), "label", "node broadside rotation"),
        FieldSpec("fault_rate", "float32", (), "label", "per-opportunity fault rate"),
        FieldSpec("velocity_mps", "float32", (), "label", "radial velocity"),
        FieldSpec("los", "uint8", (), "label", "1 = line-of-sight, 0 = blocked"),
        FieldSpec(
            "scene_kind",
            "uint8",
            (),
            "label",
            "index into DatasetConfig.scenes (manifest carries the names)",
        ),
        FieldSpec("est_distance_m", "float32", (), "estimate", "classical range estimate"),
        FieldSpec("est_azimuth_deg", "float32", (), "estimate", "classical AoA estimate"),
        FieldSpec("beat_frequency_hz", "float32", (), "estimate", "detected beat peak"),
        FieldSpec(
            "est_valid",
            "uint8",
            (),
            "estimate",
            "1 when the classical estimator produced a fix, else 0 (NaN estimates)",
        ),
    )


@dataclass(frozen=True)
class RowParams:
    """Row ``index`` decomposed into grid coordinates."""

    index: int
    scene_kind: str
    scene_index: int
    distance_m: float
    azimuth_deg: float
    orientation_deg: float
    fault_rate: float
    velocity_mps: float
    trial: int


def _nonempty(name: str, values: tuple) -> tuple:
    if not values:
        raise ConfigurationError(f"{name} must not be empty")
    return values


@dataclass(frozen=True)
class DatasetConfig:
    """Everything that defines a corpus (see module docstring)."""

    scenes: tuple[str, ...] = SCENE_KINDS
    distances_m: tuple[float, ...] = (2.0, 4.0, 6.0)
    azimuths_deg: tuple[float, ...] = (0.0,)
    orientations_deg: tuple[float, ...] = (0.0,)
    fault_rates: tuple[float, ...] = (0.0,)
    fault_kinds: tuple[str, ...] = ("chirp_drop",)
    velocities_mps: tuple[float, ...] = (0.0,)
    n_trials: int = 1
    seed: int = 0
    n_spectrum_bins: int = 96

    def __post_init__(self) -> None:
        # Tolerate lists (e.g. a manifest round-trip through JSON).
        for name in (
            "scenes",
            "distances_m",
            "azimuths_deg",
            "orientations_deg",
            "fault_rates",
            "fault_kinds",
            "velocities_mps",
        ):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _nonempty("scenes", self.scenes)
        for kind in self.scenes:
            if kind not in SCENE_KINDS:
                raise ConfigurationError(
                    f"unknown scene kind {kind!r}; choose from {SCENE_KINDS}"
                )
        for d in _nonempty("distances_m", self.distances_m):
            if d <= 0:
                raise ConfigurationError("distances must be positive")
        _nonempty("azimuths_deg", self.azimuths_deg)
        _nonempty("orientations_deg", self.orientations_deg)
        for rate in _nonempty("fault_rates", self.fault_rates):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError("fault rates must be in [0, 1]")
        for kind in _nonempty("fault_kinds", self.fault_kinds):
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; choose from {sorted(FAULT_KINDS)}"
                )
        _nonempty("velocities_mps", self.velocities_mps)
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be at least 1")
        if self.n_spectrum_bins < 4:
            raise ConfigurationError("n_spectrum_bins must be at least 4")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigurationError("seed must be a non-negative integer")

    # --- the grid --------------------------------------------------------------------

    @property
    def axes(self) -> tuple[tuple[str, int], ...]:
        """Grid axes, slowest-varying first; trial is always fastest."""
        return (
            ("scenes", len(self.scenes)),
            ("distances_m", len(self.distances_m)),
            ("azimuths_deg", len(self.azimuths_deg)),
            ("orientations_deg", len(self.orientations_deg)),
            ("fault_rates", len(self.fault_rates)),
            ("velocities_mps", len(self.velocities_mps)),
            ("trial", self.n_trials),
        )

    @property
    def n_rows(self) -> int:
        total = 1
        for _, size in self.axes:
            total *= size
        return total

    def row_params(self, index: int) -> RowParams:
        """Decompose a global row index into its grid coordinates."""
        if not 0 <= index < self.n_rows:
            raise ConfigurationError(
                f"row index {index} outside grid of {self.n_rows} rows"
            )
        remaining = index
        coords: dict[str, int] = {}
        for name, size in reversed(self.axes):
            coords[name] = remaining % size
            remaining //= size
        return RowParams(
            index=index,
            scene_kind=self.scenes[coords["scenes"]],
            scene_index=coords["scenes"],
            distance_m=self.distances_m[coords["distances_m"]],
            azimuth_deg=self.azimuths_deg[coords["azimuths_deg"]],
            orientation_deg=self.orientations_deg[coords["orientations_deg"]],
            fault_rate=self.fault_rates[coords["fault_rates"]],
            velocity_mps=self.velocities_mps[coords["velocities_mps"]],
            trial=coords["trial"],
        )

    # --- manifest round-trip ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for the manifest (lists, plain scalars)."""
        raw = asdict(self)
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in raw.items()
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DatasetConfig":
        return cls(**data)
