"""JSON serialization of configurations, traces and experiment records.

The formats are deliberately plain (lists and dicts of built-in types) so
that experiment output can be archived, diffed and consumed by external
tooling without importing this package.

:func:`save_json`/:func:`load_json` are the shared file-level primitives:
every document the library writes (experiment records, ensemble checkpoint
entries from :mod:`repro.runtime.checkpoint`, trace archives) goes through
them, or through the compact writer behind :func:`save_json`, so I/O
failures surface uniformly as :class:`SerializationError`.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.analysis.experiments import ExperimentRecord
from repro.core.compression import CompressionTrace, TracePoint
from repro.errors import SerializationError
from repro.lattice.configuration import ParticleConfiguration

PathLike = Union[str, Path]

#: Format version embedded in every document for forward compatibility.
FORMAT_VERSION = 1


def save_json(payload: Dict[str, Any], path: PathLike) -> Path:
    """Write a JSON-compatible dict to ``path``; returns the path.

    The write goes through a same-directory temporary file followed by an
    atomic rename, so a reader (e.g. checkpoint resume after an interrupt)
    never observes a half-written document.  Non-JSON-serializable values
    raise :class:`SerializationError` rather than being silently coerced —
    a document that cannot round-trip must fail at write time, not on a
    later resume.
    """
    return _write_json(payload, path, indent=2)


def _write_json(payload: Dict[str, Any], path: PathLike, indent: Optional[int]) -> Path:
    """:func:`save_json` with a choice of layout: ``indent=None`` writes
    compact JSON, without spaces, as :mod:`repro.runtime.checkpoint` does
    for its documents; :func:`load_json` reads either layout.
    """
    output = Path(path)
    try:
        text = json.dumps(
            payload, indent=indent, separators=None if indent else (",", ":")
        )
        temporary = output.with_name(output.name + ".tmp")
        temporary.write_text(text, encoding="utf-8")
        temporary.replace(output)
    except (OSError, TypeError, ValueError) as exc:
        raise SerializationError(f"cannot write JSON document to {path}: {exc}") from exc
    return output


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a JSON document written by :func:`save_json` (or compatible tooling)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read JSON document from {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError(f"expected a JSON object in {path}, got {type(payload).__name__}")
    return payload


def configuration_to_json(configuration: ParticleConfiguration) -> Dict[str, Any]:
    """Serialize a configuration to a JSON-compatible dict."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "particle_configuration",
        "n": configuration.n,
        "nodes": [[x, y] for x, y in configuration.sorted_nodes()],
    }


def configuration_from_json(payload: Dict[str, Any]) -> ParticleConfiguration:
    """Deserialize a configuration produced by :func:`configuration_to_json`."""
    try:
        if payload.get("kind") != "particle_configuration":
            raise SerializationError(f"unexpected document kind {payload.get('kind')!r}")
        nodes = payload["nodes"]
        configuration = ParticleConfiguration.from_sorted(nodes)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed configuration payload: {exc}") from exc
    if "n" in payload and payload["n"] != configuration.n:
        raise SerializationError(
            f"declared particle count {payload['n']} does not match {configuration.n} nodes"
        )
    return configuration


def save_configuration(configuration: ParticleConfiguration, path: PathLike) -> Path:
    """Write a configuration to a JSON file; returns the path."""
    output = Path(path)
    output.write_text(json.dumps(configuration_to_json(configuration), indent=2), encoding="utf-8")
    return output


def load_configuration(path: PathLike) -> ParticleConfiguration:
    """Read a configuration from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read configuration from {path}: {exc}") from exc
    return configuration_from_json(payload)


def trace_to_json(trace: CompressionTrace) -> Dict[str, Any]:
    """Serialize a compression trace (the data behind Figures 2 and 10).

    Every field is coerced to its plain Python type at write time: engine
    internals occasionally hand back numpy scalars, and while
    ``numpy.float64`` happens to be JSON-encodable (it subclasses
    ``float``), ``numpy.int64`` is not — and a trace that serializes or
    not depending on which engine produced it would be a reproducibility
    bug.  Non-finite floats (``nan``/``±inf``) round-trip as the JSON
    extension tokens ``NaN``/``Infinity`` bit-identically, which the
    property-based round-trip tests pin.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "compression_trace",
        "n": int(trace.n),
        "lambda": float(trace.lam),
        "points": [
            {
                "iteration": int(point.iteration),
                "perimeter": int(point.perimeter),
                "edges": int(point.edges),
                "holes": int(point.holes),
                "alpha": float(point.alpha),
                "beta": float(point.beta),
            }
            for point in trace.points
        ],
    }


def trace_from_json(payload: Dict[str, Any]) -> CompressionTrace:
    """Deserialize a compression trace produced by :func:`trace_to_json`."""
    try:
        if payload.get("kind") != "compression_trace":
            raise SerializationError(f"unexpected document kind {payload.get('kind')!r}")
        trace = CompressionTrace(n=int(payload["n"]), lam=float(payload["lambda"]))
        for point in payload["points"]:
            trace.points.append(
                TracePoint(
                    iteration=int(point["iteration"]),
                    perimeter=int(point["perimeter"]),
                    edges=int(point["edges"]),
                    holes=int(point["holes"]),
                    alpha=float(point["alpha"]),
                    beta=float(point["beta"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed trace payload: {exc}") from exc
    return trace


def save_experiment_record(record: ExperimentRecord, path: PathLike) -> Path:
    """Write an experiment record to a JSON file; returns the path."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "experiment_record",
        **asdict(record),
    }
    return save_json(payload, path)


def load_experiment_record(path: PathLike) -> ExperimentRecord:
    """Read an experiment record from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("kind") != "experiment_record":
            raise SerializationError(f"unexpected document kind {payload.get('kind')!r}")
        return ExperimentRecord(
            experiment_id=payload["experiment_id"],
            description=payload["description"],
            parameters=payload["parameters"],
            results=payload["results"],
            expectation=payload["expectation"],
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SerializationError(f"cannot read experiment record from {path}: {exc}") from exc
