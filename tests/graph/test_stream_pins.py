"""Interaction streams are pinned bit for bit.

``data/stream_pins.json`` was recorded at commit ``37cd6d6``, where an
:class:`InteractionStream` was a list of ``(u, v, t)`` tuples, each
discretization policy returned per-bucket event lists and
:func:`discretize` added one store step per bucket.  The stream now
holds three columns, a policy returns one bucket id per event and
:func:`discretize` is one store build; each pin checks that the
columnar path sorts ties, assigns buckets, builds stores, expands
snapshots and writes CSV exactly as the list path did.  Bucket
columns at the parent were read off the bucket lists (their
concatenation was the stream, in order).  Rerun :func:`stream_pins`
to see the current values.
"""

import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph.formats import write_event_csv
from repro.graph.streams import (
    InteractionStream,
    discretize,
    equal_count_windows,
    session_windows,
    to_stream,
    uniform_windows,
)

from tests.conftest import store_digest

PINS = json.loads((Path(__file__).parent / "data" / "stream_pins.json").read_text())
EXAMPLE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples" / "stream_discretization.py"
)


def bursty_stream() -> InteractionStream:
    """The example's bursty stream (n=60, seed 0)."""
    spec = importlib.util.spec_from_file_location("stream_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_bursty_stream(n=60, seed=0)


def tied_stream(seed: int = 11) -> InteractionStream:
    """Half-integer timestamps: ~8 events share each time."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 9, 240)
    dst = rng.integers(0, 9, 240)
    time = rng.integers(0, 30, 240) / 2.0
    keep = src != dst
    return InteractionStream(9, src[keep], dst[keep], time[keep])


def simple_stream() -> InteractionStream:
    return InteractionStream(
        4, [0, 1, 2, 3, 0], [1, 2, 3, 0, 2], [0.0, 0.4, 1.1, 2.9, 3.0]
    )


STREAMS = {
    "bursty": (bursty_stream, 10),
    "tied": (tied_stream, 7),
    "simple": (simple_stream, 7),
}
PINNED_SPAN = {"bursty": (-0.5, 80.0), "tied": (-1.0, 16.0), "simple": (-1.0, 3.5)}
POLICIES = {
    "uniform": uniform_windows,
    "equal_count": equal_count_windows,
    "session": session_windows,
}


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def stream_digest(stream: InteractionStream) -> str:
    """Digest of the events as iterated (Python ints and floats)."""
    events = list(stream)
    for u, v, t in events:
        assert type(u) is int and type(v) is int and type(t) is float
    src = np.array([e[0] for e in events], dtype=np.int64)
    dst = np.array([e[1] for e in events], dtype=np.int64)
    time = np.array([e[2] for e in events], dtype=np.float64)
    return f"N={stream.num_nodes}:" + _array_digest(src, dst, time)


def bucket_pins() -> dict:
    out = {}
    for name, (make, t_len) in STREAMS.items():
        stream = make()
        t0, t1 = PINNED_SPAN[name]
        policies = dict(
            POLICIES,
            uniform_pinned=functools.partial(uniform_windows, t0=t0, t1=t1),
        )
        for pname, policy in policies.items():
            out[f"{name}/{pname}"] = _array_digest(policy(stream, t_len))
    return out


def discretize_pins() -> dict:
    out = {}
    for name, (make, t_len) in STREAMS.items():
        stream = make()
        attrs = np.random.default_rng(3).normal(size=(t_len, stream.num_nodes, 2))
        for pname, policy in POLICIES.items():
            out[f"{name}/{pname}"] = store_digest(discretize(stream, t_len, policy))
            out[f"{name}/{pname}/F=2"] = store_digest(
                discretize(stream, t_len, policy, attributes=attrs)
            )
    return out


def to_stream_pins() -> dict:
    graph = load_dataset("email", scale=0.02, seed=0)
    return {
        "email/midpoint": stream_digest(to_stream(graph)),
        "email/rng2": stream_digest(
            to_stream(graph, window=0.5, rng=np.random.default_rng(2))
        ),
    }


def op_pins() -> dict:
    tied, bursty = tied_stream(), bursty_stream()
    out = {
        "tied/between": stream_digest(tied.between(3.0, 9.5)),
        "bursty/between": stream_digest(bursty.between(10.0, 45.0)),
        "tied/merged": stream_digest(tied.merged(tied_stream(12))),
        "tied/shifted": stream_digest(tied.shifted(2.25)),
        "tied/subsampled": stream_digest(
            tied.subsampled(50, np.random.default_rng(4))
        ),
        "bursty/subsampled": stream_digest(
            bursty.subsampled(100, np.random.default_rng(5))
        ),
        "tied/inter_event_times": _array_digest(tied.inter_event_times()),
    }
    for name, stream in (("tied", tied), ("bursty", bursty)):
        st = stream.statistics()
        out[f"{name}/statistics"] = [
            st.num_nodes, st.num_events, st.time_span, st.events_per_node,
            st.unique_pairs,
        ]
    return out


def csv_pin(tmp_path: Path) -> str:
    stream = InteractionStream(
        5, [0, 3, 1, 4, 2], [1, 2, 4, 0, 3],
        [0.5, 1.0 / 3.0, 2.0, 1e-7, 12345.678],
    )
    path = tmp_path / "events.csv"
    write_event_csv(stream, path)
    return path.read_bytes().decode()


def stream_pins(tmp_path: Path) -> dict:
    return {
        "buckets": bucket_pins(),
        "discretize": discretize_pins(),
        "to_stream": to_stream_pins(),
        "ops": op_pins(),
        "write_event_csv": csv_pin(tmp_path),
    }


@pytest.fixture(scope="module")
def pins(tmp_path_factory):
    return stream_pins(tmp_path_factory.mktemp("stream_pins"))


def test_pins_cover_every_recorded_key(pins):
    for section in ("buckets", "discretize", "to_stream", "ops"):
        assert sorted(pins[section]) == sorted(PINS[section]), section


@pytest.mark.parametrize(
    "section,key",
    [
        (section, key)
        for section in ("buckets", "discretize", "to_stream", "ops")
        for key in sorted(PINS[section])
    ],
)
def test_matches_parent(pins, section, key):
    assert pins[section][key] == PINS[section][key]


def test_write_event_csv_bytes_match_parent(pins):
    assert pins["write_event_csv"] == PINS["write_event_csv"]
