"""Loading and emitting monoid specification files (JSON).

Schema::

    {
      "group":   {"free_rank": 2, "torsion": [3]},
      "classes": [[1, 0, 2], [0, 1, 0]],          # free coords then residues
      "labels":  ["u", "v"],                       # optional, no ',' or '^'
      "mult":    [1, "inf"]                        # optional, default all 1
    }

Every number (free rank, torsion order, class coordinate, multiplicity) must
be a JSON integer; floats, strings and booleans are rejected, never truncated
or parsed.  Class coordinates are reduced modulo the torsion orders on load;
duplicates after reduction are rejected.  A spec emitted by :func:`spec_to_dict`
re-parses to an equal specification.
"""

from __future__ import annotations

import json
from pathlib import Path

from .abgroup import INFINITE, FinGenAbelianGroup
from .krull import KrullSpec
from .zsm import ClassSet


class SpecFileError(ValueError):
    """Malformed specification file; the message names the offending field."""


def _integer(value, what: str) -> int:
    if type(value) is not int:  # not isinstance: a bool is an int
        raise SpecFileError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def _integers(values, what: str) -> list[int]:
    if not isinstance(values, list):
        raise SpecFileError(f"{what} must be a list of integers")
    return [_integer(v, f"{what} entry") for v in values]


def parse_spec_dict(data: dict) -> tuple[KrullSpec, tuple[str, ...]]:
    if not isinstance(data, dict):
        raise SpecFileError("top level must be an object")
    try:
        group_part = data["group"]
        free_rank = _integer(group_part.get("free_rank", 0), "free_rank")
        torsion = tuple(_integers(group_part.get("torsion", []), "torsion"))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SpecFileError(f"bad 'group' field: {exc}") from exc
    try:
        group = FinGenAbelianGroup(free_rank, torsion)
    except ValueError as exc:
        raise SpecFileError(f"bad group: {exc}") from exc

    raw_classes = data.get("classes")
    if not isinstance(raw_classes, list) or not raw_classes:
        raise SpecFileError("'classes' must be a nonempty list of coordinate vectors")
    elements = []
    for i, coords in enumerate(raw_classes):
        coords = _integers(coords, f"class {i}")
        try:
            elements.append(group.element(coords))
        except Exception as exc:
            raise SpecFileError(f"class {i}: {exc}") from exc
    try:
        class_set = ClassSet(group, tuple(elements))
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc

    raw_mult = data.get("mult", [1] * len(elements))
    if not isinstance(raw_mult, list) or len(raw_mult) != len(elements):
        raise SpecFileError("'mult' must list one multiplicity per class")
    mult = []
    for i, m in enumerate(raw_mult):
        if m == "inf":
            mult.append(INFINITE)
        elif type(m) is int and m >= 1:
            mult.append(m)
        else:
            raise SpecFileError(f"mult[{i}] must be a positive integer or \"inf\"")

    raw_labels = data.get("labels", [f"g{i}" for i in range(len(elements))])
    if (not isinstance(raw_labels, list) or len(raw_labels) != len(elements)
            or not all(isinstance(s, str) for s in raw_labels)):
        raise SpecFileError("'labels' must list one string per class")
    if len(set(raw_labels)) != len(raw_labels):
        raise SpecFileError("labels must be distinct")
    for s in raw_labels:
        # a sequence is read as labels split at ',', each maybe with '^k'
        if not s or s != s.strip() or "," in s or "^" in s:
            raise SpecFileError(f"label {json.dumps(s)} is empty, has surrounding"
                                " whitespace, or contains ',' or '^'")

    try:
        spec = KrullSpec(class_set, tuple(mult))
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc
    return spec, tuple(raw_labels)


def load_spec(path: str | Path) -> tuple[KrullSpec, tuple[str, ...]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    return parse_spec_dict(data)


def spec_to_dict(spec: KrullSpec, labels: tuple[str, ...]) -> dict:
    """Canonical dictionary form; the inverse of parse_spec_dict."""
    group = spec.group
    return {
        "group": {"free_rank": group.free_rank, "torsion": list(group.torsion)},
        "classes": [list(g.coords()) for g in spec.class_set.classes],
        "labels": list(labels),
        "mult": ["inf" if m == INFINITE else int(m) for m in spec.mult],
    }
