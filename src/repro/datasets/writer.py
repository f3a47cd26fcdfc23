"""Sharded NPZ corpus writing: deterministic bytes, crash-safe, resumable.

Three properties this module guarantees, in priority order:

**Deterministic bytes.** Shard files are written through
:func:`deterministic_npz_bytes`, a hand-rolled NPZ serializer (the NPZ
container is just a zip of ``.npy`` members) that pins everything
``numpy.savez`` leaves environment-dependent: member order (sorted
field names), zip timestamps (the DOS epoch), compression (stored —
float noise doesn't deflate anyway), and permission bits. Two runs that
produce the same rows therefore produce the same *files*, which is what
lets tests and CI assert worker-count invariance with
``cmp``. For the same reason the manifest carries **no timestamps** —
also required by lint rule ML012 (no wall-clock in library code).

**Crash safety.** Every file lands via write-to-``*.tmp`` +
``os.replace``, and the manifest is rewritten after each shard flush.
At any kill point the directory holds only complete shards plus a
manifest that accounts for exactly those shards (``complete: false``).

**Resume.** ``ShardWriter(..., resume=True)`` reloads the manifest,
verifies the stored schema version and config match the requested run,
re-checksums the shards on disk, discards stray temp files, and
continues from the first missing row. Because rows are pure functions
of ``(config, index)`` (see :mod:`repro.datasets.schema`), the resumed
corpus is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.datasets.schema import SCHEMA_VERSION, DatasetConfig, row_fields
from repro.errors import DatasetError

__all__ = [
    "MANIFEST_NAME",
    "ShardInfo",  # milback: disable=ML014 — manifest-entry record type for readers
    "ShardWriter",
    "deterministic_npz_bytes",  # milback: disable=ML014 — public serializer, pinned by tests
    "load_dataset",
    "load_manifest",
    "validate_corpus",
]

MANIFEST_NAME = "manifest.json"

#: Fixed zip member timestamp: the DOS epoch, the earliest the format
#: can express. Any real clock here would break byte-identity.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def deterministic_npz_bytes(columns: dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays to NPZ bytes that depend only on the data."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_STORED) as archive:
        for name in sorted(columns):
            member = io.BytesIO()
            np.lib.format.write_array(
                member, np.ascontiguousarray(columns[name]), allow_pickle=False
            )
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.external_attr = 0o600 << 16
            archive.writestr(info, member.getvalue())
    return buffer.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


@dataclass(frozen=True)
class ShardInfo:
    """One shard's manifest entry."""

    name: str
    rows: int
    row_start: int
    sha256: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rows": self.rows,
            "row_start": self.row_start,
            "sha256": self.sha256,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardInfo":
        return cls(
            name=str(data["name"]),
            rows=int(data["rows"]),
            row_start=int(data["row_start"]),
            sha256=str(data["sha256"]),
        )


def load_manifest(out_dir: str | Path) -> dict[str, Any]:
    """Read and minimally validate a corpus manifest."""
    path = Path(out_dir) / MANIFEST_NAME
    if not path.is_file():
        raise DatasetError(f"no {MANIFEST_NAME} in {out_dir}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"corrupt manifest in {out_dir}: {exc}") from exc
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise DatasetError(
            f"manifest schema_version {manifest.get('schema_version')!r} "
            f"!= supported {SCHEMA_VERSION}"
        )
    return manifest


class ShardWriter:
    """Streams row blocks into fixed-size NPZ shards plus a manifest.

    Feed it row-column blocks (``dict[str, np.ndarray]``, equal leading
    dimension) in row order via :meth:`append_block`; it buffers to
    ``rows_per_shard`` boundaries, flushes each full shard atomically,
    and rewrites the manifest after every flush. :meth:`finalize`
    flushes the remainder and marks the manifest complete.
    """

    def __init__(
        self,
        out_dir: str | Path,
        config: DatasetConfig,
        rows_per_shard: int = 4096,
        resume: bool = False,
    ) -> None:
        if rows_per_shard < 1:
            raise DatasetError("rows_per_shard must be at least 1")
        self.out_dir = Path(out_dir)
        self.config = config
        self.rows_per_shard = rows_per_shard
        self._fields = row_fields(config.n_spectrum_bins)
        self._shards: list[ShardInfo] = []
        self._pending: list[dict[str, np.ndarray]] = []
        self._pending_rows = 0
        self._finalized = False
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.out_dir / MANIFEST_NAME
        if manifest_path.exists():
            if not resume:
                raise DatasetError(
                    f"{self.out_dir} already holds a corpus; pass resume=True "
                    "to continue it or choose a fresh directory"
                )
            self._load_resume_state()
        elif any(self.out_dir.glob("shard-*.npz")):
            raise DatasetError(
                f"{self.out_dir} holds shards but no manifest; refusing to mix"
            )
        # A previous run may have died mid-rename; its temp files are
        # unaccounted garbage either way.
        for stray in self.out_dir.glob("*.tmp"):
            stray.unlink()
        self._write_manifest(complete=False)

    # --- resume ----------------------------------------------------------------------

    def _load_resume_state(self) -> None:
        manifest = load_manifest(self.out_dir)
        stored = DatasetConfig.from_dict(manifest["config"])
        if stored != self.config:
            raise DatasetError(
                "resume config mismatch: the manifest in "
                f"{self.out_dir} describes a different corpus"
            )
        if int(manifest["rows_per_shard"]) != self.rows_per_shard:
            raise DatasetError(
                f"resume rows_per_shard mismatch: manifest has "
                f"{manifest['rows_per_shard']}, requested {self.rows_per_shard}"
            )
        shards = [ShardInfo.from_dict(entry) for entry in manifest["shards"]]
        expected_start = 0
        for shard in shards:
            if shard.row_start != expected_start:
                raise DatasetError(f"manifest shard order broken at {shard.name}")
            path = self.out_dir / shard.name
            if not path.is_file():
                raise DatasetError(f"manifest lists missing shard {shard.name}")
            if _sha256(path.read_bytes()) != shard.sha256:
                raise DatasetError(f"checksum mismatch on {shard.name}; not resuming")
            expected_start += shard.rows
        self._shards = shards

    # --- writing ---------------------------------------------------------------------

    @property
    def rows_done(self) -> int:
        """Rows already durable on disk (excludes the pending buffer)."""
        return sum(shard.rows for shard in self._shards)

    def append_block(self, block: dict[str, np.ndarray]) -> None:
        """Buffer one row block; flush every full shard it completes."""
        if self._finalized:
            raise DatasetError("writer already finalized")
        expected = {spec.name for spec in self._fields}
        if set(block) != expected:
            missing = sorted(expected - set(block))
            extra = sorted(set(block) - expected)
            raise DatasetError(
                f"block fields do not match schema (missing={missing}, extra={extra})"
            )
        n = int(next(iter(block.values())).shape[0])
        for name, column in block.items():
            if column.shape[0] != n:
                raise DatasetError(f"ragged block: field {name!r}")
        if n == 0:
            return
        self._pending.append(block)
        self._pending_rows += n
        while self._pending_rows >= self.rows_per_shard:
            self._flush_shard(self.rows_per_shard)

    def finalize(self) -> dict[str, Any]:
        """Flush the remainder, mark the manifest complete, return it."""
        if not self._finalized:
            if self._pending_rows:
                self._flush_shard(self._pending_rows)
            self._finalized = True
        return self._write_manifest(complete=self.rows_done >= self.config.n_rows)

    def _take_rows(self, count: int) -> dict[str, np.ndarray]:
        """Pop exactly ``count`` rows off the pending buffer, per column."""
        taken: dict[str, list[np.ndarray]] = {spec.name: [] for spec in self._fields}
        remaining = count
        while remaining > 0:
            block = self._pending[0]
            n = int(next(iter(block.values())).shape[0])
            if n <= remaining:
                self._pending.pop(0)
                for name in taken:
                    taken[name].append(block[name])
                remaining -= n
            else:
                for name in taken:
                    taken[name].append(block[name][:remaining])
                self._pending[0] = {
                    name: column[remaining:] for name, column in block.items()
                }
                remaining = 0
        self._pending_rows -= count
        return {name: np.concatenate(parts) for name, parts in taken.items()}

    def _flush_shard(self, rows: int) -> None:
        columns = self._take_rows(rows)
        # Storage dtypes come from the schema, not from whatever the
        # generator happened to compute in.
        for spec in self._fields:
            columns[spec.name] = np.asarray(columns[spec.name], dtype=spec.dtype)
        row_start = self.rows_done
        name = f"shard-{len(self._shards):05d}.npz"
        data = deterministic_npz_bytes(columns)
        _atomic_write(self.out_dir / name, data)
        self._shards.append(ShardInfo(name, rows, row_start, _sha256(data)))
        obs.counter("datasets.shards.written").inc()
        obs.counter("datasets.shard_bytes").inc(len(data))
        self._write_manifest(complete=False)

    def _write_manifest(self, complete: bool) -> dict[str, Any]:
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "n_rows": self.config.n_rows,
            "rows_per_shard": self.rows_per_shard,
            "fields": [
                {
                    "name": spec.name,
                    "dtype": spec.dtype,
                    "shape": list(spec.shape),
                    "group": spec.group,
                    "doc": spec.doc,
                }
                for spec in self._fields
            ],
            "shards": [shard.to_dict() for shard in self._shards],
            "rows_written": self.rows_done,
            "complete": complete,
        }
        _atomic_write(
            self.out_dir / MANIFEST_NAME,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return manifest


# --- reading / validation --------------------------------------------------------------


def validate_corpus(out_dir: str | Path) -> dict[str, Any]:
    """Check a corpus directory end to end; return its manifest.

    Verifies the manifest parses at the supported schema version, every
    listed shard exists with a matching checksum, shard row ranges tile
    ``[0, rows_written)`` contiguously, and each shard's columns carry
    the schema's fields with the declared dtypes, shapes, and row
    counts. Raises :class:`~repro.errors.DatasetError` on the first
    inconsistency.
    """
    out_dir = Path(out_dir)
    manifest = load_manifest(out_dir)
    config = DatasetConfig.from_dict(manifest["config"])
    fields = row_fields(config.n_spectrum_bins)
    expected_start = 0
    for entry in manifest["shards"]:
        shard = ShardInfo.from_dict(entry)
        path = out_dir / shard.name
        if not path.is_file():
            raise DatasetError(f"missing shard {shard.name}")
        data = path.read_bytes()
        if _sha256(data) != shard.sha256:
            raise DatasetError(f"checksum mismatch on {shard.name}")
        if shard.row_start != expected_start:
            raise DatasetError(f"shard row ranges not contiguous at {shard.name}")
        expected_start += shard.rows
        with np.load(io.BytesIO(data)) as npz:
            names = set(npz.files)
            for spec in fields:
                if spec.name not in names:
                    raise DatasetError(f"{shard.name} lacks field {spec.name!r}")
                column = npz[spec.name]
                if column.dtype != np.dtype(spec.dtype):
                    raise DatasetError(
                        f"{shard.name}:{spec.name} dtype {column.dtype} "
                        f"!= schema {spec.dtype}"
                    )
                if column.shape != (shard.rows, *spec.shape):
                    raise DatasetError(
                        f"{shard.name}:{spec.name} shape {column.shape} "
                        f"!= {(shard.rows, *spec.shape)}"
                    )
    if expected_start != int(manifest["rows_written"]):
        raise DatasetError(
            f"manifest rows_written {manifest['rows_written']} != "
            f"sum of shard rows {expected_start}"
        )
    if manifest["complete"] and expected_start != int(manifest["n_rows"]):
        raise DatasetError(
            f"corpus marked complete with {expected_start} of "
            f"{manifest['n_rows']} rows"
        )
    obs.counter("datasets.corpora.validated").inc()
    return manifest


def load_dataset(out_dir: str | Path) -> dict[str, np.ndarray]:
    """Load a full corpus into memory, one concatenated array per field.

    Convenience for small corpora (examples, baselines, tests); training
    pipelines at scale should stream shard by shard instead.
    """
    out_dir = Path(out_dir)
    manifest = validate_corpus(out_dir)
    config = DatasetConfig.from_dict(manifest["config"])
    columns: dict[str, list[np.ndarray]] = {
        spec.name: [] for spec in row_fields(config.n_spectrum_bins)
    }
    for entry in manifest["shards"]:
        with np.load(out_dir / entry["name"]) as npz:
            for name in columns:
                columns[name].append(npz[name])
    return {
        name: np.concatenate(parts) if parts else np.empty((0,))
        for name, parts in columns.items()
    }
