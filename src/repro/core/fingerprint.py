"""Canonical content fingerprints for configurations and workloads.

The incremental experiment cache (:mod:`repro.experiments.store`) keys
stored results by *exactly the inputs a simulation point depends on*:
the :class:`~repro.core.config.SystemConfig`, the workload, the run
window (warmup/duration), the per-point seed, and a code-version salt.
This module provides the canonical serialization those keys are built
from:

* :func:`canonical_data` — a recursive walk turning dataclasses, enums,
  mappings, sequences and workload objects into plain JSON-compatible
  data with a stable shape.  Objects may expose ``fingerprint_data()``
  to declare which of their attributes are simulation inputs (mutable
  generation counters must be excluded, or a half-used workload would
  fingerprint differently from a fresh one).
* :func:`canonical_json` / :func:`fingerprint` — normalized JSON
  (sorted keys, minimal separators) and its SHA-256.
* :func:`code_version_salt` — a digest over the source files of every
  package that determines a simulation trajectory (``sim``, ``core``,
  ``storage``, ``workload``, ``recovery``, ``cluster``, ``trace``).
  Any edit to simulation code therefore invalidates all cached points,
  while presentation-layer edits (CLI, exports, charts) do not.
* :func:`point_fingerprint` — the composite key of one sweep point.

Determinism contract: the fingerprint never uses ``hash()``, ``id()``
or ``repr()`` of objects, so it is stable across processes,
interpreter restarts and platforms (floats serialize via JSON's
shortest round-trip repr).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional

__all__ = [
    "FingerprintError",
    "POINT_SCHEMA_VERSION",
    "canonical_data",
    "canonical_json",
    "code_version_salt",
    "fingerprint",
    "point_fingerprint",
]

#: Bump when the *meaning* of a point fingerprint changes (fields added
#: to the composite key, canonicalization rules altered): old cache
#: entries must not be served for keys built under different rules.
POINT_SCHEMA_VERSION = 1

#: Subpackages whose source determines the simulated trajectory of a
#: point.  Presentation layers (cli, experiments, analysis, bench) are
#: deliberately absent: a point's result is fully determined by
#: (config, workload, warmup, duration, seed) plus this code.
_SALT_PACKAGES = ("sim", "core", "storage", "workload", "recovery",
                  "cluster", "trace")


class FingerprintError(TypeError):
    """An object cannot be canonically fingerprinted.

    Raised for values with no stable data representation (open files,
    callables, foreign extension objects without ``fingerprint_data``).
    The experiment runner treats points containing such objects as
    uncacheable and always recomputes them.
    """


def _class_key(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_data(obj: Any) -> Any:
    """Recursively normalize ``obj`` into JSON-compatible plain data.

    The walk accepts primitives, enums, dataclasses, mappings with
    string keys, sequences, sets, numpy scalars/arrays and arbitrary
    objects that either expose ``fingerprint_data()`` or carry only
    public, walkable attributes (underscore-prefixed attributes are
    skipped: by convention they hold derived or mutable run state).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return {"__enum__": _class_key(obj), "value": canonical_data(obj.value)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        data = {
            f.name: canonical_data(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": _class_key(obj), "fields": data}
    if isinstance(obj, Mapping):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, (str, int, float, bool)):
                raise FingerprintError(
                    f"cannot fingerprint mapping key of type {type(key)!r}"
                )
            skey = key if isinstance(key, str) else json.dumps(key)
            if skey in out:
                raise FingerprintError(
                    f"mapping keys collide after normalization: {skey!r}"
                )
            out[skey] = canonical_data(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical_data(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(
            (canonical_data(v) for v in obj),
            key=lambda v: json.dumps(v, sort_keys=True),
        )
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes_sha256__": hashlib.sha256(bytes(obj)).hexdigest()}
    module = type(obj).__module__ or ""
    if module.split(".")[0] == "numpy":
        item = getattr(obj, "item", None)
        if item is not None and getattr(obj, "shape", None) == ():
            return canonical_data(item())
        tobytes = getattr(obj, "tobytes", None)
        if tobytes is not None:
            return {
                "__ndarray__": {
                    "dtype": str(obj.dtype),
                    "shape": list(obj.shape),
                    "sha256": hashlib.sha256(tobytes()).hexdigest(),
                }
            }
    data_fn = getattr(obj, "fingerprint_data", None)
    if callable(data_fn):
        return {"__class__": _class_key(obj),
                "data": canonical_data(data_fn())}
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        public = {k: v for k, v in attrs.items() if not k.startswith("_")}
        for value in public.values():
            if callable(value):
                raise FingerprintError(
                    f"{_class_key(obj)} holds a callable attribute; "
                    "define fingerprint_data() to make it cacheable"
                )
        return {"__class__": _class_key(obj),
                "attrs": {k: canonical_data(v)
                          for k, v in sorted(public.items())}}
    raise FingerprintError(
        f"cannot fingerprint object of type {_class_key(obj)}; "
        "define a fingerprint_data() method"
    )


def canonical_json(obj: Any) -> str:
    """Normalized JSON of :func:`canonical_data`: sorted keys, minimal
    separators — the byte string every fingerprint hashes."""
    return json.dumps(canonical_data(obj), sort_keys=True,
                      separators=(",", ":"))


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


_SALT_CACHE: Optional[str] = None


def code_version_salt() -> str:
    """Digest over the simulation-determining source of this checkout.

    Computed once per process.  ``REPRO_CACHE_SALT`` overrides it (e.g.
    to share a cache across checkouts known to be trajectory-identical,
    or to force invalidation without touching code).
    """
    global _SALT_CACHE
    env = os.environ.get("REPRO_CACHE_SALT")
    if env:
        return env
    if _SALT_CACHE is not None:
        return _SALT_CACHE
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for package in _SALT_PACKAGES:
        base = root / package
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    _SALT_CACHE = digest.hexdigest()
    return _SALT_CACHE


def point_fingerprint(config: Any, workload: Any, warmup: float,
                      duration: float, seed: int) -> str:
    """The cache key of one sweep point.

    Exactly the arguments of one simulation run — note the sweep's
    presentation ``x`` value is *not* part of the key: two figures
    plotting the same (config, workload, seed) point against different
    axes share one cached result.
    """
    return fingerprint({
        "schema": POINT_SCHEMA_VERSION,
        "salt": code_version_salt(),
        "config": config,
        "workload": workload,
        "warmup": warmup,
        "duration": duration,
        "seed": seed,
    })
