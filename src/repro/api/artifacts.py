"""Versioned generator artifacts: one envelope for every generator.

An *artifact* is a single uncompressed ``.npz`` that round-trips any
registered generator — fitted or not — through seven members:

=================  ========================================================
``__artifact__``   magic marker (``"repro-generator-artifact"``)
``version``        envelope format version (currently 4; versions 2 and 3
                   stored one ``arr::<i>`` member per array and are still
                   read; version 1 is the legacy VRDAG-only layout read by
                   :func:`repro.core.persistence.load_model`)
``generator``      registry name (``repro.api.get_generator`` resolves it)
``config``         JSON of ``generator.to_config()`` — construction as data
``state``          JSON ``{"manifest": [...], "tree": ...}``: ``tree`` is
                   ``generator.get_state()`` with every numpy array swapped
                   for a ``{"__ndarray__": i}`` reference, and
                   ``manifest[i]`` is that array's ``[dtype, shape,
                   offset]`` in the blob
``blob``           one ``uint8`` array: every array's C-order bytes, back
                   to back at 64-byte-aligned offsets
``checksum``       SHA-256 over the generator name, config bytes, state
                   bytes (manifest included) and blob bytes — verified at
                   load, before any array is sliced, so silent corruption
                   surfaces as a typed :class:`ArtifactError` instead of a
                   garbage model
=================  ========================================================

The member count is fixed whatever the parameter count, so a load is
one blob read and one hash pass rather than one member read (and npy
header parse) per array.  The envelope is stored, not deflated: the
parameters are float64 and barely compress, while inflating them
costs more than the file read.

The state codec closes over: ``None``, ``bool``/``int``/``float``/
``str``, numpy arrays and scalars, and lists/tuples/dicts of those.
Dicts are encoded as ordered ``[key, value]`` pair lists so that
integer keys *and insertion order* survive — both matter for
bit-exact regeneration (e.g. the walk baselines' bigram tables feed
``rng.choice`` in insertion order).  Anything outside that closure
raises :class:`ArtifactStateError` at save time; a generator whose
state legitimately cannot be captured should override
``get_state``/``set_state`` to re-encode it (see ``GRAN``/``TIGGER``)
or exclude it via ``_STATE_EXCLUDE``.

Loading never unpickles: ``np.load`` runs with ``allow_pickle=False``
and the JSON fields decode to plain containers.

**Crash safety** (``docs/reliability.md``): :func:`save_artifact`
writes through a temp file and ``os.replace``, so a crash mid-save
leaves either the old file or the new one — never a torn envelope.
:func:`load_artifact` wraps every decode failure (bad zip, truncated
member, missing entry, invalid JSON, checksum mismatch) in
:class:`ArtifactError` naming the path and the failure mode;
``FileNotFoundError`` still passes through untouched.  The
``artifact.load`` / ``artifact.state`` injection points let the chaos
suite provoke both.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.baselines.base import GraphGenerator
from repro.reliability import fault_injector

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactStateError",
    "is_artifact",
    "load_artifact",
    "save_artifact",
]

ARTIFACT_VERSION = 4
_MIN_READ_VERSION = 2
_MAGIC = "repro-generator-artifact"
_ARRAY_PREFIX = "arr::"  # v2/v3: one member per array; v4 has one blob
_ALIGN = 64

PathLike = Union[str, os.PathLike]


class ArtifactError(ValueError):
    """An artifact file cannot be read: corrupt, truncated, or foreign.

    Subclasses ``ValueError`` so callers written against the pre-v3
    ``load_artifact`` contract (which raised bare ``ValueError``) keep
    working; the message always names the offending path and the
    failure mode.  ``FileNotFoundError`` is *not* converted — a
    missing file is an addressing error, not a corrupt artifact.
    """


class ArtifactStateError(TypeError):
    """A generator's state holds a value the envelope cannot encode."""


# ---------------------------------------------------------------------------
# state codec
# ---------------------------------------------------------------------------
def _encode(value: Any, arrays: List[np.ndarray], where: str) -> Any:
    """Encode one state value into a JSON-able node, hoisting arrays."""
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject or value.dtype.names is not None:
            raise ArtifactStateError(
                f"{where}: array of dtype {value.dtype} is not serializable "
                "(object and structured dtypes have no flat byte layout)"
            )
        arrays.append(value)
        return {"__ndarray__": len(arrays) - 1}
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {
            "__tuple__": [
                _encode(v, arrays, f"{where}[{i}]") for i, v in enumerate(value)
            ]
        }
    if isinstance(value, list):
        return [_encode(v, arrays, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        items = []
        for key, val in value.items():
            if isinstance(key, np.generic):
                key = key.item()
            if not isinstance(key, (bool, int, float, str)):
                raise ArtifactStateError(
                    f"{where}: dict key {key!r} "
                    f"({type(key).__name__}) is not serializable"
                )
            items.append([key, _encode(val, arrays, f"{where}[{key!r}]")])
        return {"__dict__": items}
    raise ArtifactStateError(
        f"{where}: value of type {type(value).__name__} is not serializable; "
        "override get_state/set_state or add the attribute to _STATE_EXCLUDE"
    )


def _decode(node: Any, arrays: Dict[int, np.ndarray]) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(node, list):
        return [_decode(v, arrays) for v in node]
    if isinstance(node, dict):
        if "__ndarray__" in node:
            return arrays[int(node["__ndarray__"])]
        if "__tuple__" in node:
            return tuple(_decode(v, arrays) for v in node["__tuple__"])
        return {key: _decode(val, arrays) for key, val in node["__dict__"]}
    return node


def _json_bytes(payload: Any) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


def _pack(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[list]]:
    """Lay ``arrays`` out in one ``uint8`` blob; returns blob + manifest.

    ``manifest[i]`` is ``[dtype.str, shape, offset]``; each offset is a
    multiple of ``_ALIGN`` so the views :func:`_unpack` hands out are
    aligned for every dtype.
    """
    manifest = []
    end = 0
    for a in arrays:
        offset = -(-end // _ALIGN) * _ALIGN
        manifest.append([a.dtype.str, list(a.shape), offset])
        end = offset + a.nbytes
    blob = np.zeros(end, dtype=np.uint8)
    for a, (_, _, offset) in zip(arrays, manifest):
        flat = np.ascontiguousarray(a).reshape(-1).view(np.uint8)
        blob[offset:offset + a.nbytes] = flat
    return blob, manifest


def _unpack(
    blob: np.ndarray, manifest: Sequence[list], path: PathLike
) -> Dict[int, np.ndarray]:
    """Inverse of :func:`_pack`: writable, aligned, C-contiguous views."""
    arrays = {}
    for i, (descr, shape, offset) in enumerate(manifest):
        dtype = np.dtype(descr)
        end = offset + dtype.itemsize * math.prod(shape)
        if not 0 <= offset <= end <= blob.size:
            raise ArtifactError(
                f"{path}: manifest entry {i} ({descr} {shape} at offset "
                f"{offset}) lies past the end of the {blob.size}-byte blob"
            )
        arrays[i] = blob[offset:end].view(dtype).reshape(shape)
    return arrays


def _payload_digest(
    name: str,
    config_bytes: bytes,
    state_bytes: bytes,
    arrays: Sequence[np.ndarray],
) -> str:
    """SHA-256 over the *logical* payload, not the file bytes.

    Hashing dtype + shape + C-order bytes per array makes the digest
    stable across save/load round trips (compression, Fortran layouts
    and views all normalize away) — the digest answers "is this the
    state I wrote", not "are these the bytes zlib produced".  Version 3
    passes every state array; version 4 passes the blob alone, so its
    digest is one pass over the file's payload.
    """
    h = hashlib.sha256()
    for part in (name.encode(), config_bytes, state_bytes):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# envelope I/O
# ---------------------------------------------------------------------------
def save_artifact(generator: GraphGenerator, path: PathLike) -> None:
    """Serialize any registered generator (fitted or not) to ``path``.

    A bare :class:`~repro.core.model.VRDAG` is accepted too — it is
    wrapped in the ``"VRDAG"`` registry adapter first, so the file is
    indistinguishable from a trained-through-the-registry artifact.

    The write is atomic: the envelope is assembled in a sibling temp
    file and moved into place with ``os.replace``, so readers (and
    crash recovery) only ever see a complete artifact.  Like
    ``np.savez``, a path without a ``.npz`` suffix gets one appended.
    """
    from repro.api.registry import generator_name_of
    from repro.core.model import VRDAG

    if isinstance(generator, VRDAG):
        from repro.eval.harness import VRDAGGenerator

        generator = VRDAGGenerator.from_model(generator)
    name = generator_name_of(generator)
    arrays: List[np.ndarray] = []
    state_tree = _encode(generator.get_state(), arrays, name)
    blob, manifest = _pack(arrays)
    config_arr = _json_bytes(generator.to_config())
    state_arr = _json_bytes({"manifest": manifest, "tree": state_tree})
    checksum = _payload_digest(
        name, config_arr.tobytes(), state_arr.tobytes(), [blob]
    )
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                __artifact__=np.array(_MAGIC),
                version=np.array(ARTIFACT_VERSION),
                generator=np.array(name),
                config=config_arr,
                state=state_arr,
                checksum=np.array(checksum),
                blob=blob,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_artifact(path: PathLike) -> GraphGenerator:
    """Reconstruct the generator saved by :func:`save_artifact`.

    Raises :class:`ArtifactError` (a ``ValueError``) for anything
    unreadable — foreign files, unsupported versions, truncated or
    corrupt envelopes (bad zip members, invalid JSON, checksum
    mismatch), missing entries — always naming ``path`` and the
    failure mode.  ``FileNotFoundError`` passes through untouched,
    and unregistered generator names surface from the registry as
    usual.  Reads versions ``2..4``: v4 arrays are views into the one
    blob member, sliced only after the checksum holds; v2/v3 arrays
    are their own ``arr::<i>`` members (v2 files simply lack the
    checksum, so they skip verification).
    """
    from repro.api.registry import generator_entry

    # keyless: the arrival counter varies the decision per load even
    # when every request reads the same artifact path
    fault_injector.fire("artifact.load")
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__artifact__" not in data.files or (
                str(data["__artifact__"][()]) != _MAGIC
            ):
                raise ArtifactError(
                    f"{path} is not a generator artifact (no envelope "
                    "marker); legacy VRDAG model files are read by "
                    "repro.core.persistence.load_model"
                )
            version = int(data["version"])
            if version > ARTIFACT_VERSION or version < _MIN_READ_VERSION:
                raise ArtifactError(
                    f"{path}: unsupported artifact version {version} (this "
                    f"build reads version "
                    f"{_MIN_READ_VERSION}..{ARTIFACT_VERSION})"
                )
            name = str(data["generator"][()])
            config_bytes = bytes(data["config"])
            state_bytes = bytes(data["state"])
            if version >= 4:
                blob = data["blob"]
                payload = [blob]
            else:
                arrays = {
                    int(key[len(_ARRAY_PREFIX):]): data[key]
                    for key in data.files
                    if key.startswith(_ARRAY_PREFIX)
                }
                payload = [arrays[i] for i in sorted(arrays)]
            if version >= 3:
                if "checksum" not in data.files:
                    raise ArtifactError(
                        f"{path}: version {version} artifact is missing its "
                        "checksum entry (truncated write?)"
                    )
                stored = str(data["checksum"][()])
                state_bytes = fault_injector.corrupt_bytes(
                    "artifact.state", state_bytes, key=os.fspath(path)
                )
                actual = _payload_digest(
                    name, config_bytes, state_bytes, payload
                )
                if actual != stored:
                    raise ArtifactError(
                        f"{path}: checksum mismatch (stored {stored[:12]}…, "
                        f"computed {actual[:12]}…) — the artifact is corrupt"
                    )
        config = json.loads(config_bytes.decode())
        state_tree = json.loads(state_bytes.decode())
        if version >= 4:
            arrays = _unpack(blob, state_tree["manifest"], path)
            state_tree = state_tree["tree"]
        state = _decode(state_tree, arrays)
    except FileNotFoundError:
        raise
    except ArtifactError:
        raise
    except (zipfile.BadZipFile, KeyError, TypeError, json.JSONDecodeError,
            ValueError, OSError) as exc:
        raise ArtifactError(
            f"{path}: corrupt or truncated artifact "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    entry = generator_entry(name)
    generator = entry.cls.from_config(**config)
    generator.set_state(state)
    return generator


def is_artifact(path: PathLike) -> bool:
    """True if ``path`` is an artifact envelope (any version)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            return "__artifact__" in data.files
    except FileNotFoundError:
        raise
    except Exception:
        return False
