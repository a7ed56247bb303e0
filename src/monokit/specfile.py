"""Line-oriented description files for classification runs.

The format is deliberately small: `key: value` scalars, nested blocks by
two-space indentation, `- ` list items, inline `[a, b]` number lists, and
interval-product literals for regions. Every unknown key, bad indent, or
malformed value is rejected with its line number. An operator block names a
kind of operators.KINDS, and each of its fields is read by the reader of
its format there: rows as `- [a, b]` items, a region literal, a vector as a
number or `[a, b]`, a number, or a nested operator block. An operator that
its constructor refuses is reported at its own block's line, a nested one
included.

    operator:
      kind: flat
      region: (0, 1)
      wstar: 0
    window: (0, 1)
    properties:
      - identifies
      - locates

Blank lines and lines starting with # are ignored.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .core import DEFAULT_TOL, Tolerance
from .errors import MonokitError, RegionError, SpecFormatError
from .operators import KINDS, OperatorHandle, build_operator
from .regions import GridSpec, Region, box_from_literal
from .verdicts import Property


@dataclass(frozen=True)
class RunConfig:
    """Everything one classification run needs, parsed and validated."""

    operator: OperatorHandle
    window: Region | None
    target: Region | None
    properties: tuple[Property, ...]
    grid: GridSpec
    tol: Tolerance


@dataclass(frozen=True)
class _Line:
    indent: int
    text: str
    number: int


def _scan(text: str) -> list[_Line]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw:
            raise SpecFormatError("tabs are not allowed", line=i,
                                  column=raw.index("\t") + 1)
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2 != 0:
            raise SpecFormatError("indentation must be in steps of two",
                                  line=i, column=indent + 1)
        out.append(_Line(indent, stripped, i))
    return out


def _parse_block(lines: list[_Line], i: int, indent: int):
    """Parse one block; returns (node, next index).

    A dict node maps key -> (line number, child); a list node is a list of
    (line number, raw item text).
    """
    if i >= len(lines) or lines[i].indent != indent:
        raise SpecFormatError("expected an indented block",
                              line=lines[i - 1].number if i else 1)
    if lines[i].text.startswith("- "):
        items = []
        while i < len(lines) and lines[i].indent == indent \
                and lines[i].text.startswith("- "):
            items.append((lines[i].number, lines[i].text[2:].strip()))
            i += 1
        if i < len(lines) and lines[i].indent > indent:
            raise SpecFormatError("unexpected deeper indentation",
                                  line=lines[i].number,
                                  column=lines[i].indent + 1)
        return items, i
    node: dict[str, tuple[int, object]] = {}
    while i < len(lines) and lines[i].indent == indent:
        line = lines[i]
        if line.text.startswith("- "):
            raise SpecFormatError("list item in a key block",
                                  line=line.number, column=indent + 1)
        if ":" not in line.text:
            raise SpecFormatError("expected 'key: value' or 'key:'",
                                  line=line.number, column=indent + 1)
        key, _, rest = line.text.partition(":")
        key = key.strip()
        rest = rest.strip()
        if not key:
            raise SpecFormatError("empty key", line=line.number,
                                  column=indent + 1)
        if key in node:
            raise SpecFormatError(f"duplicate key {key!r}", line=line.number,
                                  column=indent + 1)
        if rest:
            node[key] = (line.number, rest)
            i += 1
        else:
            child, i = _parse_block(lines, i + 1, indent + 2)
            node[key] = (line.number, child)
    if i < len(lines) and lines[i].indent > indent:
        raise SpecFormatError("unexpected deeper indentation",
                              line=lines[i].number,
                              column=lines[i].indent + 1)
    return node, i


def _as_float(raw, line) -> float:
    if not isinstance(raw, str):
        raise SpecFormatError("expected a number", line=line)
    try:
        return float(raw)
    except ValueError:
        raise SpecFormatError(f"bad number {raw!r}", line=line) from None


def _as_int(raw, line) -> int:
    v = _as_float(raw, line)
    if not v.is_integer():
        raise SpecFormatError(f"expected an integer, got {raw!r}", line=line)
    return int(v)


def _as_number_list(raw, line) -> list[float]:
    if not isinstance(raw, str) or not (raw.startswith("[") and raw.endswith("]")):
        raise SpecFormatError("expected an inline list like [a, b]", line=line)
    body = raw[1:-1].strip()
    if not body:
        raise SpecFormatError("empty list", line=line)
    return [_as_float(part, line) for part in body.split(",")]


def _as_vector_value(raw, line) -> list[float]:
    if isinstance(raw, str) and raw.startswith("["):
        return _as_number_list(raw, line)
    return [_as_float(raw, line)]


def _as_region(raw, line) -> Region:
    if not isinstance(raw, str):
        raise SpecFormatError("expected an interval product literal",
                              line=line)
    try:
        return box_from_literal(raw)
    except RegionError as exc:
        raise SpecFormatError(str(exc), line=line) from None


def _require_dict(node, line, what):
    if not isinstance(node, dict):
        raise SpecFormatError(f"{what} must be a key block", line=line)
    return node


def _as_rows(raw, line, key) -> list[list[float]]:
    if not isinstance(raw, list):
        raise SpecFormatError(f"{key} must be a list of rows", line=line)
    return [_as_number_list(item, ln) for ln, item in raw]


def _operator_node(node, line) -> dict:
    node = _require_dict(node, line, "operator")
    if "kind" not in node:
        raise SpecFormatError("operator block needs a 'kind'", line=line)
    kind_line, kind = node["kind"]
    if not isinstance(kind, str):
        raise SpecFormatError("kind must be a name", line=kind_line)
    if kind not in KINDS:
        raise SpecFormatError(f"unknown operator kind {kind!r}",
                              line=kind_line)
    _, fields = KINDS[kind]
    for key, (key_line, _) in node.items():
        if key != "kind" and key not in fields:
            raise SpecFormatError(
                f"unknown field {key!r} for kind {kind!r}", line=key_line)
    spec: dict = {"kind": kind}
    for key, fmt in fields.items():
        if key not in node:
            raise SpecFormatError(f"kind {kind!r} needs field {key!r}",
                                  line=line)
        val_line, val = node[key]
        spec[key] = _FIELD_READERS[fmt](val, val_line, key)
    return spec


# How a description file writes each field format of operators.KINDS: every
# reader takes the raw node, its line and the field's name.
_FIELD_READERS = {
    "rows": _as_rows,
    "region": lambda raw, line, _: _as_region(raw, line),
    "vector": lambda raw, line, _: _as_vector_value(raw, line),
    "number": lambda raw, line, _: _as_float(raw, line),
    "operator": lambda raw, line, _: _operator(raw, line),
}


def _operator(node, line) -> OperatorHandle:
    """The operator a block describes, built, with an error raised while it
    is constructed reported at the block's line; a nested block is built
    first, so its errors carry its own line."""
    spec = _operator_node(node, line)
    try:
        return build_operator(spec)
    except MonokitError as exc:
        raise SpecFormatError(str(exc), line=line) from None


_PROPERTY_NAMES = {p.value: p for p in Property}


def parse_spec(text: str) -> RunConfig:
    """Parse and validate one description file into a RunConfig."""
    lines = _scan(text)
    if not lines:
        raise SpecFormatError("empty description", line=1)
    tree, end = _parse_block(lines, 0, 0)
    if end != len(lines):
        raise SpecFormatError("trailing content", line=lines[end].number)
    tree = _require_dict(tree, lines[0].number, "description")

    known = {"operator", "window", "target", "properties", "grid",
             "tolerance"}
    for key, (key_line, _) in tree.items():
        if key not in known:
            raise SpecFormatError(f"unknown key {key!r}", line=key_line)
    if "operator" not in tree:
        raise SpecFormatError("missing 'operator' block",
                              line=lines[0].number)

    operator = _operator(*reversed(tree["operator"]))

    window = target = None
    if "window" in tree:
        window = _as_region(*reversed(tree["window"]))
    if "target" in tree:
        target = _as_region(*reversed(tree["target"]))

    properties: tuple[Property, ...] = (Property.MONOTONE,)
    if "properties" in tree:
        prop_line, prop_node = tree["properties"]
        if not isinstance(prop_node, list):
            raise SpecFormatError("properties must be a list",
                                  line=prop_line)
        names = []
        for ln, raw in prop_node:
            if raw not in _PROPERTY_NAMES:
                raise SpecFormatError(f"unknown property {raw!r}", line=ln)
            names.append(_PROPERTY_NAMES[raw])
        properties = tuple(names)

    return RunConfig(operator=operator, window=window, target=target,
                     properties=properties,
                     grid=_settings(tree, "grid", GridSpec()),
                     tol=_settings(tree, "tolerance", DEFAULT_TOL))


def _settings(tree, name: str, default):
    """The `grid:` or `tolerance:` block read over its default dataclass:
    each key names one of its fields, int fields are read with _as_int and
    the others with _as_float, and a combination the dataclass rejects is
    reported at the block's line."""
    if name not in tree:
        return default
    line, node = tree[name]
    node = _require_dict(node, line, name)
    names = {f.name for f in dataclasses.fields(default)}
    fields = {}
    for key, (key_line, raw) in node.items():
        if key not in names:
            raise SpecFormatError(f"unknown {name} key {key!r}",
                                  line=key_line)
        read = _as_int if isinstance(getattr(default, key), int) \
            else _as_float
        fields[key] = read(raw, key_line)
    try:
        return dataclasses.replace(default, **fields)
    except MonokitError as exc:
        raise SpecFormatError(str(exc), line=line) from None
