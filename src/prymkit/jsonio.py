"""Canonical JSON serialization: rationals as 'p/q' strings, polynomials as
ascending coefficient arrays, deterministic key order."""

from __future__ import annotations

import json
from fractions import Fraction

from .rat import rat_str
from .upoly import UPoly


def canonical(obj):
    """Recursively map package values onto JSON-serializable structures."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, UPoly):
        return obj.to_json()
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str, float)):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "to_json"):
        return canonical(obj.to_json())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
