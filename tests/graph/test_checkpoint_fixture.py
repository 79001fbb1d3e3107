"""A committed v1 ingestion checkpoint still loads, verifies and resumes.

``data/ingest_checkpoint_v1_b43a58f.npz`` was written by commit
b43a58f, whose streaming builder kept its runs as ``(src, dst, t)``
columns: a :class:`StreamingStoreBuilder` with ``chunk_events=256``
fed the first ``PREFIX`` events of :func:`fixture_events`, then
checkpointed (two runs that share edges).  The builder now keeps each
run as one packed key column, and the checkpoint format must not
notice.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.graph.store import TemporalEdgeStore
from repro.graph.streams import (
    StreamingStoreBuilder,
    _checkpoint_digest,
    ingest_stream,
)

FIXTURE = Path(__file__).parent / "data" / "ingest_checkpoint_v1_b43a58f.npz"
N, T, M, CHUNK, PREFIX = 12, 4, 900, 256, 700


def fixture_events():
    """Deterministic shuffled events with loops and duplicates (no RNG)."""
    x = (np.arange(M, dtype=np.int64) * 2654435761) % 2**32
    return x % N, (x // N) % N, (x // (N * N)) % T


@pytest.fixture(scope="module")
def stored():
    with np.load(FIXTURE, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def test_loads(stored):
    builder = StreamingStoreBuilder.from_checkpoint(FIXTURE)
    assert (builder.num_nodes, builder.num_timesteps) == (N, T)
    assert builder.chunk_events == CHUNK
    assert builder.events_ingested == PREFIX
    assert builder.num_runs == int(stored["num_runs"]) >= 2


def test_checksum_verifies(stored):
    runs = [
        tuple(stored[f"run{i}_{col}"] for col in ("src", "dst", "t"))
        for i in range(int(stored["num_runs"]))
    ]
    digest = _checkpoint_digest(
        int(stored["num_nodes"]),
        int(stored["num_timesteps"]),
        int(stored["chunk_events"]),
        int(stored["events_ingested"]),
        runs,
    )
    assert digest == str(stored["checksum"][()])


def test_resumes_to_bulk_store(tmp_path):
    ckpt = tmp_path / "resume.npz"
    shutil.copyfile(FIXTURE, ckpt)
    events = fixture_events()
    store = ingest_stream(
        events, N, T, chunk_events=CHUNK, checkpoint_path=str(ckpt)
    )
    assert store == TemporalEdgeStore(N, T, *events)
    assert not ckpt.exists()


def test_same_events_write_same_members(stored, tmp_path):
    src, dst, t = fixture_events()
    builder = StreamingStoreBuilder(N, T, chunk_events=CHUNK)
    builder.extend(src[:PREFIX], dst[:PREFIX], t[:PREFIX])
    ckpt = tmp_path / "rewrite.npz"
    builder.checkpoint(ckpt)
    with np.load(ckpt, allow_pickle=False) as data:
        written = {key: data[key] for key in data.files}
    assert sorted(written) == sorted(stored)
    for key, value in stored.items():
        assert written[key].dtype == value.dtype, key
        np.testing.assert_array_equal(written[key], value, err_msg=key)
