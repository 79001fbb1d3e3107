"""Artifact crash safety: checksums, typed errors, atomic writes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.api.artifacts import ARTIFACT_VERSION, ArtifactError, _payload_digest

#: a v3 envelope (one ``arr::<i>`` member per array) saved at c61ebd7
V3_FIXTURE = Path(__file__).parent / "data" / "vrdag_v3_c61ebd7.npz"


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from repro.datasets import load_dataset

    generator = api.get_generator(
        "ErdosRenyi", seed=0, **api.smoke_config("ErdosRenyi")
    )
    generator.fit(load_dataset("email", scale=0.012, seed=0))
    path = str(tmp_path_factory.mktemp("integrity") / "gen.npz")
    api.save_artifact(generator, path)
    return path


@pytest.fixture(scope="module")
def vrdag_v4(tmp_path_factory):
    """The committed v3 VRDAG re-saved as v4: a blob of ~70 arrays."""
    path = str(tmp_path_factory.mktemp("integrity-v4") / "vrdag.npz")
    api.save_artifact(api.load_artifact(V3_FIXTURE), path)
    return path


def _copy(source, path):
    with open(source, "rb") as src, open(path, "wb") as dst:
        dst.write(src.read())
    return str(path)


@pytest.fixture()
def copy_of(artifact, tmp_path):
    """A scratch copy of the pristine artifact, safe to mutilate."""
    return _copy(artifact, tmp_path / "victim.npz")


@pytest.fixture()
def v4_copy(vrdag_v4, tmp_path):
    return _copy(vrdag_v4, tmp_path / "victim-v4.npz")


@pytest.fixture()
def v3_copy(tmp_path):
    return _copy(V3_FIXTURE, tmp_path / "victim-v3.npz")


def _rewrite_npz(path, *, drop=(), **overrides):
    with np.load(path, allow_pickle=False) as data:
        payload = {k: data[k] for k in data.files if k not in drop}
    payload.update(overrides)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)


class TestTypedErrors:
    def test_artifact_error_is_a_value_error(self):
        assert issubclass(ArtifactError, ValueError)

    def test_missing_file_passes_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            api.load_artifact(tmp_path / "missing.npz")

    def test_garbage_file_named_in_error(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as fh:
            fh.write(b"\x00not a zip archive\x00")
        with pytest.raises(ArtifactError, match="corrupt or truncated") as e:
            api.load_artifact(path)
        assert path in str(e.value)

    def test_truncated_file_rejected(self, copy_of):
        size = os.path.getsize(copy_of)
        with open(copy_of, "rb+") as fh:
            fh.truncate(size // 2)
        with pytest.raises(ArtifactError):
            api.load_artifact(copy_of)

    def test_foreign_npz_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(ArtifactError, match="not a generator artifact"):
            api.load_artifact(path)

    def test_unsupported_version_rejected(self, copy_of):
        _rewrite_npz(copy_of, version=np.array(ARTIFACT_VERSION + 1))
        with pytest.raises(ArtifactError, match="unsupported artifact"):
            api.load_artifact(copy_of)

    def test_invalid_state_json_rejected(self, copy_of):
        _rewrite_npz(
            copy_of, state=np.frombuffer(b"{not json", dtype=np.uint8)
        )
        with pytest.raises(ArtifactError):
            api.load_artifact(copy_of)


class TestChecksums:
    def test_tampered_state_fails_checksum(self, copy_of):
        with np.load(copy_of, allow_pickle=False) as data:
            state = data["state"].copy()
        state[0] ^= 0xFF  # one flipped byte, stale stored checksum
        _rewrite_npz(copy_of, state=state)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            api.load_artifact(copy_of)

    def test_tampered_config_fails_checksum(self, copy_of):
        with np.load(copy_of, allow_pickle=False) as data:
            config = data["config"].copy()
        config[-2] ^= 0x01  # inside the JSON body, before the closing brace
        _rewrite_npz(copy_of, config=config)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            api.load_artifact(copy_of)

    def test_v3_without_checksum_rejected(self, v3_copy):
        _rewrite_npz(v3_copy, drop=("checksum",))
        with pytest.raises(ArtifactError, match="missing its checksum"):
            api.load_artifact(v3_copy)

    def test_v4_without_checksum_rejected(self, copy_of):
        _rewrite_npz(copy_of, drop=("checksum",))
        with pytest.raises(ArtifactError, match="version 4 artifact is "
                           "missing its checksum"):
            api.load_artifact(copy_of)

    def test_v2_envelope_still_reads(self, v3_copy):
        """Version-2 files (no checksum) predate integrity checking and
        must keep loading bit-compatibly."""
        _rewrite_npz(v3_copy, drop=("checksum",), version=np.array(2))
        v2 = api.load_artifact(v3_copy)
        v3 = api.load_artifact(V3_FIXTURE)
        assert v2.generate(num_timesteps=3) == v3.generate(num_timesteps=3)

    def test_v2_missing_array_member_is_typed(self, v3_copy):
        _rewrite_npz(
            v3_copy, drop=("checksum", "arr::0"), version=np.array(2)
        )
        with pytest.raises(ArtifactError, match="corrupt or truncated") as e:
            api.load_artifact(v3_copy)
        assert v3_copy in str(e.value)


class TestBlob:
    """The v4 envelope keeps every array in one ``blob`` member."""

    def test_flipped_blob_byte_fails_checksum(self, v4_copy):
        with np.load(v4_copy, allow_pickle=False) as data:
            blob = data["blob"].copy()
        blob[blob.size // 2] ^= 0xFF
        _rewrite_npz(v4_copy, blob=blob)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            api.load_artifact(v4_copy)

    def test_missing_blob_rejected(self, v4_copy):
        _rewrite_npz(v4_copy, drop=("blob",))
        with pytest.raises(ArtifactError, match="corrupt or truncated") as e:
            api.load_artifact(v4_copy)
        assert v4_copy in str(e.value)

    def test_truncated_blob_rejected(self, v4_copy):
        with np.load(v4_copy, allow_pickle=False) as data:
            blob = data["blob"][:-100].copy()
        _rewrite_npz(v4_copy, blob=blob)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            api.load_artifact(v4_copy)

    def test_manifest_past_blob_end_is_typed(self, v4_copy):
        """A manifest that passes the checksum but overruns the blob
        (a writer bug, not bit rot) still ends in ``ArtifactError``."""
        with np.load(v4_copy, allow_pickle=False) as data:
            name = str(data["generator"][()])
            config = bytes(data["config"])
            state = json.loads(bytes(data["state"]))
            blob = data["blob"].copy()
        state["manifest"][-1][2] = int(blob.size)  # last array past the end
        state_arr = np.frombuffer(json.dumps(state).encode(), dtype=np.uint8)
        checksum = _payload_digest(name, config, state_arr.tobytes(), [blob])
        _rewrite_npz(v4_copy, state=state_arr, checksum=np.array(checksum))
        with pytest.raises(ArtifactError, match="past the end") as e:
            api.load_artifact(v4_copy)
        assert v4_copy in str(e.value)


class TestAtomicSave:
    def test_suffix_appended_and_no_temp_left(self, artifact, tmp_path):
        generator = api.load_artifact(artifact)
        api.save_artifact(generator, tmp_path / "model")
        assert sorted(os.listdir(tmp_path)) == ["model.npz"]

    def test_overwrite_leaves_single_readable_file(self, artifact,
                                                   tmp_path):
        generator = api.load_artifact(artifact)
        path = str(tmp_path / "model.npz")
        api.save_artifact(generator, path)
        api.save_artifact(generator, path)
        assert os.listdir(tmp_path) == ["model.npz"]
        reloaded = api.load_artifact(path)
        assert reloaded.generate(num_timesteps=3) == generator.generate(
            num_timesteps=3
        )
