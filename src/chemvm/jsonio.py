"""Stable serialization helpers, and the one reader for JSON inputs.

All file outputs of the toolchain must be byte-identical across runs with
the same inputs and seed, so everything funnels through these helpers: no
timestamps, no locale, no hash-order leakage, floats via `repr` (shortest
round-trip form, so reading a trace back reproduces the exact float).

Every input document (rule databases, rigs, correction policies, Monte
Carlo configs) is read through `loads_object`, and its parts through
`json_object` and `json_entry`: a JSON object with every required key and
no key outside the declared ones, or the loader's own error naming where
the document went wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = [
    "is_integer",
    "is_number",
    "json_entry",
    "json_object",
    "loads_object",
    "fmt_num",
    "dumps_stable",
    "dumps_jsonl",
    "write_text_atomic",
    "sha256_file",
    "sha256_bytes",
]


def is_number(x: object) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_integer(x: object) -> bool:
    """A JSON integer: an int, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_object(obj: Any, where: str, required: frozenset[str] = frozenset(),
                optional: frozenset[str] = frozenset(),
                error: type[Exception] = ValueError) -> dict:
    """`obj`, checked to be a JSON object that has every `required` key and
    no key outside `required` and `optional`; else raises `error`."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    keys = obj.keys()
    if not keys >= required:
        raise error(f"{where}: missing field(s) {sorted(required - keys)}")
    if len(keys) > len(required):
        unknown = keys - required - optional
        if unknown:
            raise error(f"{where}: unknown field(s) {sorted(unknown)}")
    return obj


def json_entry(obj: Any, kind: str, where: str, required: frozenset[str],
               optional: frozenset[str], error: type[Exception]) -> tuple[dict, str]:
    """An entry of a list in the document `where`, checked as `json_object`
    does, and its name for messages: `{where}: {kind} {id!r}`."""
    where = f"{where}: {kind} {obj.get('id', '?') if isinstance(obj, dict) else '?'!r}"
    return json_object(obj, where, required, optional, error), where


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a number")


def loads_object(text: str, where: str, required: frozenset[str] = frozenset(),
                 optional: frozenset[str] = frozenset(),
                 error: type[Exception] = ValueError) -> dict:
    """Decode `text` and check the result as `json_object` does. `NaN` and
    `Infinity`, which `json` decodes by default, are not JSON."""
    try:
        doc = json.loads(text, parse_constant=_not_a_number)
    except ValueError as exc:  # JSONDecodeError is one
        raise error(f"{where}: not valid JSON: {exc}") from None
    return json_object(doc, where, required, optional, error)


def fmt_num(x: float | int) -> str:
    """Canonical text for a number: integral floats lose the trailing .0;
    infinities and NaN print as `repr` does."""
    if isinstance(x, bool):
        raise TypeError("bool is not a quantity")
    if isinstance(x, int):
        return str(x)
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# The compact layout: `json.dumps(obj, separators=(",", ":"),
# ensure_ascii=False)`.
_COMPACT = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
# `_COMPACT.encode` builds a fresh C encoder on every call; this one is
# built once, with `_COMPACT`'s settings, and called per record. It keeps
# no `markers` dict for finding circular references: records and
# documents are trees, and a dict shared across calls could keep stale ids
# after an exception.
_encode_compact = json.encoder.c_make_encoder(
    None, _COMPACT.default, json.encoder.encode_basestring, None,
    _COMPACT.key_separator, _COMPACT.item_separator, False, False, _COMPACT.allow_nan)


def dumps_stable(obj: Any, *, indent: int | None = None) -> str:
    """JSON text with stable layout. Dict insertion order is the contract:
    callers build dicts in the field order they want on disk."""
    if indent is None:
        return "".join(_encode_compact(obj, 0))
    return json.dumps(obj, indent=indent, ensure_ascii=False)


def dumps_jsonl(records: list) -> str:
    """One compact `dumps_stable` line per record, each ending in a newline."""
    return "".join(["".join(_encode_compact(r, 0)) + "\n" for r in records])


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so readers never see a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())
