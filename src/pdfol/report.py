"""Versioned JSON report documents.

A document is {"schema_version", "canonical", "timing"}.  Everything
deterministic lives under "canonical"; wall-clock data stays outside it,
so the canonical section is byte-stable across runs in exact mode.
Exact rationals serialize as "num/den" strings, complex values as
[re, im] pairs.
"""

import json

import mpmath

from .errors import InputError

SCHEMA_VERSION = "1"


def encode(value, ring=None):
    """Recursively convert a result value to JSON-safe data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (complex, mpmath.mpc)):
        c = mpmath.mpc(value)
        return [float(c.real), float(c.imag)]
    if isinstance(value, mpmath.mpf):
        return float(value)
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, dict):
        return {str(k): encode(v, ring) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v, ring) for v in value]
    if ring is not None:
        return ring.json_value(value)
    raise InputError("cannot serialize %r" % type(value).__name__)


def document(canonical: dict, seconds: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "canonical": canonical,
        "timing": {"seconds": round(float(seconds), 6)},
    }


def render(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def canonical_bytes(doc: dict) -> bytes:
    """The byte-stable part of a document, for change detection."""
    return json.dumps(doc["canonical"], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
