"""Tests for :mod:`repro.datasets` — the sharded corpus factory.

The contracts under test (see ``docs/DATASETS.md``):

1. **Byte-identity** — the same :class:`DatasetConfig` produces the same
   shard and manifest *bytes* at any worker count, in either kernel
   mode, and across an interrupt/resume boundary.
2. **Crash safety** — at any kill point the directory holds complete
   shards plus a manifest accounting for exactly those shards, and
   ``resume=True`` continues from there.
3. **Validation** — any on-disk inconsistency (bad checksum, missing
   shard, broken row accounting) raises
   :class:`~repro.errors.DatasetError` rather than loading quietly.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.datasets import (
    MANIFEST_NAME,
    DatasetConfig,
    ShardWriter,
    generate_dataset,
    load_dataset,
    load_manifest,
    row_fields,
    scene_for_row,
    validate_corpus,
)
from repro.datasets import generator as dataset_generator
from repro.errors import ConfigurationError, DatasetError
from repro.utils.rng import indexed_rng_rows, indexed_rngs
from tests.kernel_reference import kernels_for


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


#: 2 scenes x 2 distances x 2 fault rates = 8 rows; small enough that
#: every determinism test can afford several full generations.
TINY = DatasetConfig(
    scenes=("clear", "blocked"),
    distances_m=(2.0, 3.0),
    fault_rates=(0.0, 0.3),
    n_trials=1,
    seed=7,
    n_spectrum_bins=32,
)


def _corpus_digest(out_dir: Path) -> dict[str, str]:
    """Per-file sha256 of everything in a corpus directory."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


class TestDatasetConfig:
    def test_tiny_grid_size(self):
        assert TINY.n_rows == 8

    def test_row_params_cover_grid_with_trial_fastest(self):
        config = DatasetConfig(
            scenes=("clear", "furnished"), distances_m=(2.0,), n_trials=3
        )
        params = [config.row_params(i) for i in range(config.n_rows)]
        assert [p.trial for p in params] == [0, 1, 2, 0, 1, 2]
        assert [p.scene_kind for p in params[:3]] == ["clear"] * 3
        assert [p.scene_kind for p in params[3:]] == ["furnished"] * 3
        assert [p.index for p in params] == list(range(config.n_rows))

    def test_row_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            TINY.row_params(TINY.n_rows)
        with pytest.raises(ConfigurationError):
            TINY.row_params(-1)

    def test_dict_round_trip_restores_tuples(self):
        data = json.loads(json.dumps(TINY.to_dict()))  # lists after JSON
        assert DatasetConfig.from_dict(data) == TINY

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenes": ("atrium",)},
            {"scenes": ()},
            {"distances_m": (0.0,)},
            {"fault_rates": (1.5,)},
            {"fault_kinds": ("gremlins",)},
            {"n_trials": 0},
            {"n_spectrum_bins": 2},
            {"seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DatasetConfig(**kwargs)

    def test_schema_field_names_match_generator_columns(self):
        names = [spec.name for spec in row_fields(TINY.n_spectrum_bins)]
        assert sorted(names) == sorted(dataset_generator._COLUMN_NAMES)


class TestIndexedRngs:
    def test_matches_bulk_spawn_contract(self):
        """``(seed, i)`` addressing equals spawning all rows up front."""
        bulk = np.random.SeedSequence(7).spawn(5)
        for i in range(5):
            lazy_streams = indexed_rngs(7, i, 2)
            eager = [np.random.default_rng(s) for s in bulk[i].spawn(2)]
            for lazy, want in zip(lazy_streams, eager):
                assert lazy.normal() == want.normal()

    def test_rows_independent_of_count_requested_elsewhere(self):
        a = indexed_rngs(3, 4, 1)[0].normal()
        b = indexed_rngs(3, 4, 2)[0].normal()
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            indexed_rngs(0, -1, 1)
        with pytest.raises(ConfigurationError):
            indexed_rngs(0, 0, -1)
        # A negative or non-integer seed stays inside the error hierarchy
        # (NumPy alone raises ValueError or TypeError for these).
        for seed in (-1, 1.5, np.float64(2.0), "7", None):
            with pytest.raises(ConfigurationError):
                indexed_rngs(seed, 0, 1)
            with pytest.raises(ConfigurationError):
                indexed_rng_rows(seed, range(2), 1)
        with pytest.raises(ConfigurationError):
            indexed_rng_rows(0, range(2), -1)
        # Rows must fit one spawn-key word: negative rows and rows of
        # 2**32 or more are rejected, whatever the range's direction.
        for rows in (range(-1, 2), range(3, -2, -1), range(2**32 - 1, 2**32 + 1)):
            with pytest.raises(ConfigurationError):
                indexed_rng_rows(0, rows, 1)
        # NumPy integer seeds are accepted.
        assert indexed_rngs(np.uint64(7), 0, 1)[0].random() == indexed_rngs(7, 0, 1)[0].random()
        assert indexed_rng_rows(np.int64(7), range(1), 1)[0][0].random() == (
            indexed_rngs(7, 0, 1)[0].random()
        )


class TestIndexedRngRows:
    """The block derivation against its oracle, one ``indexed_rngs`` call
    per row: every generator's PCG64 state must be the same."""

    #: Seeds of one to five uint32 words, then random 63-bit seeds.
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 3) + tuple(
        int(s) for s in np.random.default_rng(2024).integers(0, 2**63, size=4)
    )

    @staticmethod
    def _states(block):
        return [[g.bit_generator.state for g in row] for row in block]

    #: Rows from 0 and elsewhere, strided, up to the largest one-word key.
    ROWS = (range(4), range(997, 1001), range(9, 0, -4), range(2**32 - 2, 2**32), range(0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_per_row_oracle(self, seed):
        for rows in self.ROWS:
            for count in range(4):
                block = indexed_rng_rows(seed, rows, count)
                oracle = [indexed_rngs(seed, i, count) for i in rows]
                assert self._states(block) == self._states(oracle), (rows, count)

    def test_numpy_integer_seed(self):
        block = indexed_rng_rows(np.uint64(2**64 - 1), range(3, 5), 2)
        oracle = [indexed_rngs(np.uint64(2**64 - 1), i, 2) for i in range(3, 5)]
        assert self._states(block) == self._states(oracle)

    def test_counters_move_as_per_row_calls(self):
        indexed_rng_rows(5, range(10, 17), 3)
        indexed_rng_rows(5, range(4), 0)
        registry = obs.get_registry()
        assert registry.counter("rng.indexed_rngs.calls").value == 7 + 4
        assert registry.counter("rng.generators.created").value == 7 * 3

    def test_generator_pickles_copies_and_spawns_like_numpy(self):
        got = indexed_rng_rows(2**130 + 3, range(5, 7), 2)[1][1]
        want = indexed_rngs(2**130 + 3, 6, 2)[1]
        assert got.random() == want.random()
        assert pickle.dumps(got) == pickle.dumps(want)
        got_copy, want_copy = copy.deepcopy(got), copy.deepcopy(want)
        assert got_copy.bit_generator.state == want_copy.bit_generator.state
        assert got_copy.random() == want_copy.random()
        assert got.bit_generator.seed_seq.generate_state(4, np.uint64).tolist() == (
            want.bit_generator.seed_seq.generate_state(4, np.uint64).tolist()
        )
        # Two spawns in a row continue the child count, as NumPy's do.
        for _ in range(2):
            assert self._states([got.spawn(2)]) == self._states([want.spawn(2)])
        assert pickle.dumps(got) == pickle.dumps(want)
        restored = pickle.loads(pickle.dumps(got))
        assert self._states([restored.spawn(1)]) == self._states([want.spawn(1)])


class TestSceneForRow:
    def test_blocked_scene_gains_a_blocker(self):
        params = TINY.row_params(4)  # second scene = "blocked"
        assert params.scene_kind == "blocked"
        scene = scene_for_row(params)
        assert any(r.name == "blocker" for r in scene.clutter)

    def test_clear_scene_has_no_clutter(self):
        params = TINY.row_params(0)
        assert params.scene_kind == "clear"
        assert not scene_for_row(params).clutter


class TestShardWriter:
    def _block(self, config, n, start=0):
        rng = np.random.default_rng(start)
        block = {}
        for spec in row_fields(config.n_spectrum_bins):
            block[spec.name] = rng.normal(size=(n, *spec.shape)).astype(spec.dtype)
        block["row_index"] = np.arange(start, start + n, dtype=np.uint64)
        return block

    def test_refuses_existing_corpus_without_resume(self, tmp_path):
        ShardWriter(tmp_path, TINY).finalize()
        with pytest.raises(DatasetError, match="resume"):
            ShardWriter(tmp_path, TINY)

    def test_refuses_shards_without_manifest(self, tmp_path):
        (tmp_path / "shard-00000.npz").write_bytes(b"orphan")
        with pytest.raises(DatasetError, match="no manifest"):
            ShardWriter(tmp_path, TINY)

    def test_rejects_wrong_field_set_and_ragged_blocks(self, tmp_path):
        writer = ShardWriter(tmp_path, TINY)
        with pytest.raises(DatasetError, match="fields"):
            writer.append_block({"beat_spectrum": np.zeros((2, 32))})
        block = self._block(TINY, 3)
        block["x_m"] = block["x_m"][:2]
        with pytest.raises(DatasetError, match="ragged"):
            writer.append_block(block)

    def test_append_after_finalize_raises(self, tmp_path):
        writer = ShardWriter(tmp_path, TINY)
        writer.finalize()
        with pytest.raises(DatasetError, match="finalized"):
            writer.append_block(self._block(TINY, 1))

    def test_blocks_split_and_merge_across_shard_boundaries(self, tmp_path):
        writer = ShardWriter(tmp_path, TINY, rows_per_shard=3)
        writer.append_block(self._block(TINY, 5, start=0))
        writer.append_block(self._block(TINY, 3, start=5))
        manifest = writer.finalize()
        assert [s["rows"] for s in manifest["shards"]] == [3, 3, 2]
        assert [s["row_start"] for s in manifest["shards"]] == [0, 3, 6]
        loaded = load_dataset(tmp_path)
        assert loaded["row_index"].tolist() == list(range(8))

    def test_stray_tmp_files_removed(self, tmp_path):
        ShardWriter(tmp_path, TINY).finalize()
        (tmp_path / "shard-00099.npz.tmp").write_bytes(b"half-written")
        ShardWriter(tmp_path, TINY, resume=True)
        assert not list(tmp_path.glob("*.tmp"))


class TestByteIdentity:
    def test_identical_across_worker_counts_and_oracle_kernels(self, tmp_path):
        """The tentpole contract, asserted on raw file bytes.

        The ``reference`` leg generates on the loop-form oracle kernels;
        its forked workers inherit the patch.
        """
        digests = {}
        for mode in ("batched", "reference"):
            with kernels_for(mode):
                for workers in (1, 4):
                    out = tmp_path / f"{mode}-w{workers}"
                    manifest = generate_dataset(
                        TINY, out, max_workers=workers,
                        rows_per_shard=3, block_rows=2,
                    )
                    assert manifest["complete"]
                    assert manifest["rows_written"] == TINY.n_rows
                    digests[(mode, workers)] = _corpus_digest(out)
        reference = digests[("batched", 1)]
        for key, digest in digests.items():
            assert digest == reference, key

    def test_generation_is_rerun_stable(self, tmp_path):
        generate_dataset(TINY, tmp_path / "a", rows_per_shard=4)
        generate_dataset(TINY, tmp_path / "b", rows_per_shard=4)
        assert _corpus_digest(tmp_path / "a") == _corpus_digest(tmp_path / "b")


class TestGeneratedContent:
    def test_labels_and_estimates(self, tmp_path):
        generate_dataset(TINY, tmp_path, rows_per_shard=4, block_rows=2)
        data = load_dataset(tmp_path)
        fields = {spec.name: spec for spec in row_fields(TINY.n_spectrum_bins)}
        for name, column in data.items():
            assert column.dtype == np.dtype(fields[name].dtype), name
            assert column.shape == (TINY.n_rows, *fields[name].shape), name
        assert data["row_index"].tolist() == list(range(TINY.n_rows))
        # Axis decomposition: first half clear/LOS, second half blocked.
        assert data["los"].tolist() == [1] * 4 + [0] * 4
        assert data["scene_kind"].tolist() == [0] * 4 + [1] * 4
        assert set(data["distance_m"].tolist()) == {2.0, 3.0}
        # Clear scenes at these ranges always yield a classical fix and
        # it lands near the truth; blocked rows keep valid labels even
        # where the estimator is corrupted by the blocker.
        clear = data["est_valid"][:4].astype(bool)
        assert clear.all()
        err = np.abs(data["est_distance_m"][:4] - data["distance_m"][:4])
        assert float(err.max()) < 0.5
        assert np.isfinite(data["beat_spectrum"]).all()

    def test_counters_move(self, tmp_path):
        generate_dataset(TINY, tmp_path, rows_per_shard=8)
        snapshot = obs.get_registry().snapshot()
        assert snapshot["datasets.rows"]["value"] == TINY.n_rows
        assert snapshot["datasets.shards.written"]["value"] == 1
        assert snapshot["datasets.shard_bytes"]["value"] > 0
        # Generation alone never validates (that counter is the reader's).
        assert "datasets.corpora.validated" not in snapshot

    @pytest.mark.parametrize("block_rows", [0, -1])
    def test_block_rows_below_one_rejected(self, tmp_path, block_rows):
        with pytest.raises(DatasetError, match="block_rows"):
            generate_dataset(TINY, tmp_path / "corpus", block_rows=block_rows)
        assert not (tmp_path / "corpus").exists()


class TestResume:
    def test_interrupted_run_resumes_byte_identical(self, tmp_path, monkeypatch):
        straight = tmp_path / "straight"
        generate_dataset(TINY, straight, rows_per_shard=3, block_rows=2)

        interrupted = tmp_path / "interrupted"
        real_block = dataset_generator._generate_block
        calls = {"n": 0}

        def dying_block(config, bounds):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("power cut")  # milback: disable=ML004 — test payload
            return real_block(config, bounds)

        monkeypatch.setattr(dataset_generator, "_generate_block", dying_block)
        with pytest.raises(RuntimeError, match="power cut"):
            generate_dataset(TINY, interrupted, rows_per_shard=3, block_rows=2)
        monkeypatch.setattr(dataset_generator, "_generate_block", real_block)

        # The partial corpus is already internally consistent...
        partial = validate_corpus(interrupted)
        assert not partial["complete"]
        assert 0 < partial["rows_written"] < TINY.n_rows

        # ...and resuming completes it to the exact uninterrupted bytes.
        manifest = generate_dataset(
            TINY, interrupted, rows_per_shard=3, block_rows=2, resume=True
        )
        assert manifest["complete"]
        assert _corpus_digest(interrupted) == _corpus_digest(straight)
        assert obs.counter("datasets.rows_resumed").value > 0

    def test_resume_of_complete_corpus_is_noop(self, tmp_path):
        generate_dataset(TINY, tmp_path, rows_per_shard=3)
        before = _corpus_digest(tmp_path)
        manifest = generate_dataset(TINY, tmp_path, rows_per_shard=3, resume=True)
        assert manifest["complete"]
        assert _corpus_digest(tmp_path) == before

    def test_resume_with_different_config_refused(self, tmp_path):
        generate_dataset(TINY, tmp_path, rows_per_shard=3)
        other = DatasetConfig(
            scenes=("clear", "blocked"),
            distances_m=(2.0, 3.0),
            fault_rates=(0.0, 0.3),
            n_trials=1,
            seed=8,  # different corpus
            n_spectrum_bins=32,
        )
        with pytest.raises(DatasetError, match="config mismatch"):
            generate_dataset(other, tmp_path, rows_per_shard=3, resume=True)

    def test_resume_with_different_shard_size_refused(self, tmp_path):
        generate_dataset(TINY, tmp_path, rows_per_shard=3)
        with pytest.raises(DatasetError, match="rows_per_shard"):
            generate_dataset(TINY, tmp_path, rows_per_shard=4, resume=True)


class TestValidation:
    def _corpus(self, tmp_path):
        out = tmp_path / "corpus"
        generate_dataset(TINY, out, rows_per_shard=3)
        return out

    def test_valid_corpus_passes(self, tmp_path):
        out = self._corpus(tmp_path)
        manifest = validate_corpus(out)
        assert manifest["complete"]
        assert obs.counter("datasets.corpora.validated").value == 1

    def test_flipped_byte_caught(self, tmp_path):
        out = self._corpus(tmp_path)
        shard = out / "shard-00001.npz"
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="checksum"):
            validate_corpus(out)

    def test_missing_shard_caught(self, tmp_path):
        out = self._corpus(tmp_path)
        (out / "shard-00000.npz").unlink()
        with pytest.raises(DatasetError, match="missing shard"):
            validate_corpus(out)

    def test_row_accounting_mismatch_caught(self, tmp_path):
        out = self._corpus(tmp_path)
        manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        manifest["rows_written"] += 1
        (out / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DatasetError, match="rows_written"):
            validate_corpus(out)

    def test_wrong_schema_version_refused(self, tmp_path):
        out = self._corpus(tmp_path)
        manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        manifest["schema_version"] = 999
        (out / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DatasetError, match="schema_version"):
            load_manifest(out)

    def test_corrupt_manifest_json_refused(self, tmp_path):
        out = self._corpus(tmp_path)
        (out / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetError, match="corrupt manifest"):
            load_manifest(out)


class TestDatasetCli:
    def _generate_args(self, out):
        return [
            "dataset", "generate", "--out", str(out),
            "--scenes", "clear,blocked", "--distances", "2.0,3.0",
            "--fault-rates", "0.0,0.3", "--seed", "7", "--bins", "32",
            "--rows-per-shard", "3",
        ]

    def test_generate_then_verify(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(self._generate_args(out)) == 0
        stdout = capsys.readouterr().out
        assert "corpus complete: 8/8 rows" in stdout
        assert main(["dataset", "verify", "--out", str(out)]) == 0
        assert "corpus OK" in capsys.readouterr().out
        # The CLI wrote the same bytes the library API writes.
        lib = tmp_path / "lib"
        generate_dataset(TINY, lib, rows_per_shard=3)
        assert _corpus_digest(out) == _corpus_digest(lib)

    def test_verify_rejects_tampering(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(self._generate_args(out)) == 0
        capsys.readouterr()
        shards = sorted(out.glob("shard-*.npz"))
        shards[0].write_bytes(shards[0].read_bytes() + b"garbage")
        assert main(["dataset", "verify", "--out", str(out)]) == 1
        assert "corpus INVALID" in capsys.readouterr().err

    def test_verify_missing_directory(self, tmp_path, capsys):
        assert main(["dataset", "verify", "--out", str(tmp_path / "nope")]) == 1
        assert "corpus INVALID" in capsys.readouterr().err
