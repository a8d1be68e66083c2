"""Report documents: the JSON contract of the command line tool.

A report is a plain dictionary with a fixed top-level shape, checked
against the schema shipped next to this module. Serialization is
canonical (sorted keys, two-space indent, trailing newline) so equal
inputs give byte-equal output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import InputError
from .geometry import Point

__all__ = ["Report", "plain", "schema_path", "load_schema", "validate_report"]


def plain(obj):
    """Recursively convert numpy scalars/arrays and Points to built-in
    types so the result is JSON-serializable."""
    if isinstance(obj, Point):
        return [float(v) for v in obj.coords]
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, float) or isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    tool_version: str = __version__
    artifacts: list = field(default_factory=list)

    def to_dict(self):
        doc = {
            "command": self.command,
            "inputs": plain(self.inputs),
            "results": plain(self.results),
            "verdicts": plain(self.verdicts),
            "tolerances": plain(self.tolerances),
            "seed": int(self.seed),
            "tool_version": self.tool_version,
        }
        if self.artifacts:
            doc["artifacts"] = [str(a) for a in self.artifacts]
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def schema_path():
    return os.path.join(os.path.dirname(__file__), "report_schema.json")


def load_schema():
    with open(schema_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


# JSON type name -> the Python type json.load gives it
_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def _has_type(value, spec):
    """Whether value has the JSON type of the schema spec, an array's
    items included; a bool is no integer."""
    kind = _JSON_TYPES[spec["type"]]
    if isinstance(value, bool) and kind is int or not isinstance(value, kind):
        return False
    return kind is not list or all(_has_type(v, spec["items"]) for v in value)


def validate_report(doc):
    """Check a report document against the shipped schema: its required
    keys, its closed key set and each key's JSON type. Raises InputError
    naming the keys at fault."""
    if isinstance(doc, Report):
        doc = doc.to_dict()
    schema = load_schema()
    props = schema["properties"]
    missing = set(schema["required"]) - set(doc)
    unknown = set(doc) - set(props)
    mistyped = {k for k in set(doc) - unknown if not _has_type(doc[k], props[k])}
    for problem, keys in (("missing", missing), ("unknown", unknown), ("mistyped", mistyped)):
        if keys:
            raise InputError("report has %s keys: %s" % (problem, sorted(keys)))
    return True
