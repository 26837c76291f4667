"""Deterministic report assembly: canonical JSON machine output and a flat
human rendering of the same data. No wall-clock fields; identical inputs,
seed and config produce identical bytes."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from . import __version__
from .rationals import format_rational

TOOL_NAME = "evimech"


def jsonable(value):
    """Recursively render report payloads into JSON-safe structures: string
    keys only, and `TypeError` on any value JSON cannot carry as it is."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report key {key!r} is not a string")
        return {key: jsonable(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [jsonable(x) for x in value]
    raise TypeError(f"report value {value!r} of type {type(value).__name__} is not serializable")


def input_digest(raw_bytes: bytes) -> str:
    return hashlib.sha256(raw_bytes).hexdigest()


def build_report(command: str, digest: str, config: dict, payload: dict) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "config": jsonable(config),
        "payload": jsonable(payload),
    }


def render_machine(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        if not value:
            rows.append((prefix, "{}"))
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, list):
        if not value:
            rows.append((prefix, "[]"))
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, str(value)))


def render_human(report: dict) -> str:
    rows = []
    _flatten("", report, rows)
    width = max((len(k) for k, _ in rows), default=0)
    lines = [f"{key.ljust(width)}  {value}" for key, value in rows]
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "machine":
        return render_machine(report)
    return render_human(report)
