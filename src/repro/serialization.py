"""JSON-safe conversion shared by the machine-readable CLIs.

``python -m repro.experiments.report --json``, ``python -m
repro.cluster.plan --json`` and ``python -m repro.spot.plan --json`` all
promise strict JSON: numpy scalars are unwrapped, non-finite floats map
to ``null`` (``json.dumps`` would otherwise emit bare ``NaN``/``Infinity``
tokens that strict parsers reject — the spot planner's Monte Carlo
percentiles produce exactly those on degenerate inputs), and non-string
dict keys are stringified. :func:`dumps` wraps the sanitization and sets
``allow_nan=False`` so any float that slips past it fails loudly instead
of corrupting the output. With an indent, :func:`dumps` sanitizes and
writes in a single walk; :func:`jsonify` stays the reference it must
match.
"""

from __future__ import annotations

import json
import math
from typing import Any, List, Optional


def json_value(value: Any) -> Any:
    """One scalar made JSON-representable (numpy unwrapped, non-finite ->
    ``None``, anything else stringified)."""
    if not (value is None or isinstance(value, (bool, int, float, str))):
        item = getattr(value, "item", None)
        if callable(item):
            try:
                value = item()
            except (TypeError, ValueError):
                return str(value)
        else:
            return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_key(key: Any) -> str:
    """A dict key made a JSON object key. Bool and non-finite float keys
    take the spellings ``json.dumps`` would give them in key position
    (``"true"``/``"false"``, ``"null"``); everything else stringifies
    through :func:`json_value`."""
    if isinstance(key, str):
        return key
    if isinstance(key, bool):
        return "true" if key else "false"
    sanitized = json_value(key)
    return "null" if sanitized is None else str(sanitized)


def jsonify(obj: Any) -> Any:
    """Recursively JSON-safe copy of dicts/lists/tuples/sets of scalars.

    Dict keys that stringify to the same JSON key (``1`` next to ``"1"``)
    would silently overwrite each other; that is corruption, so it raises
    instead."""
    if isinstance(obj, dict):
        result = {}
        for key, value in obj.items():
            sanitized = _json_key(key)
            if sanitized in result:
                raise ValueError(
                    f"dict keys collide after JSON sanitization: {key!r} -> "
                    f"{sanitized!r} is already present"
                )
            result[sanitized] = jsonify(value)
        return result
    if isinstance(obj, (list, tuple)):
        return [jsonify(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        # Sets are unordered; sort the sanitized members by their JSON
        # text so serialization is deterministic.
        return sorted((jsonify(value) for value in obj), key=lambda v: json.dumps(v))
    # Numpy arrays (e.g. a grid of analytic percentiles): tolist() gives
    # nested Python lists whose elements still need the scalar pass —
    # non-finite entries must map to null here like everywhere else.
    # Duck-typed on (tolist, ndim) so this module stays numpy-agnostic;
    # 0-d arrays fall through to json_value's item() unwrapping.
    tolist = getattr(obj, "tolist", None)
    if callable(tolist) and getattr(obj, "ndim", 0):
        return [jsonify(value) for value in tolist()]
    return json_value(obj)


_escape = json.encoder.encode_basestring_ascii  # C-accelerated where available
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


def _scalar(obj: Any) -> Optional[str]:
    """The JSON text of a plain ``str``/``float``/``int``/``bool``/``None``
    (exact types: the common case, tested first), else ``None``."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is float:
        return _float_repr(obj) if _isfinite(obj) else "null"
    if kind is int:
        return _int_repr(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    return None


def _write(obj: Any, write, newline: str, step: str) -> None:
    """Write ``obj`` as :func:`jsonify` would sanitize it and ``json.dumps``
    would lay it out with an indent of ``step``, in one walk. ``newline``
    is the line break plus the current nesting's indent."""
    text = _scalar(obj)
    if text is not None:
        write(text)
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + step
        seen = set()
        separator = "{" + inner
        for key, value in obj.items():
            sanitized = key if type(key) is str else _json_key(key)
            if sanitized in seen:
                raise ValueError(
                    f"dict keys collide after JSON sanitization: {key!r} -> "
                    f"{sanitized!r} is already present"
                )
            seen.add(sanitized)
            text = _scalar(value)
            if text is None:
                write(f"{separator}{_escape(sanitized)}: ")
                _write(value, write, inner, step)
            else:
                write(f"{separator}{_escape(sanitized)}: {text}")
            separator = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + step
        separator = "[" + inner
        for value in obj:
            text = _scalar(value)
            if text is None:
                write(separator)
                _write(value, write, inner, step)
            else:
                write(separator + text)
            separator = "," + inner
        write(newline + "]")
    elif isinstance(obj, str):  # subclasses of the plain scalars
        write(_escape(obj))
    elif isinstance(obj, int):
        write(_int_repr(obj))
    elif isinstance(obj, float):
        write(_float_repr(obj) if _isfinite(obj) else "null")
    elif isinstance(obj, (set, frozenset)) or (
        callable(getattr(obj, "tolist", None)) and getattr(obj, "ndim", 0)
    ):
        _write(jsonify(obj), write, newline, step)
    else:
        value = json_value(obj)
        if value is None or isinstance(value, (bool, int, float, str)):
            _write(value, write, newline, step)
        else:
            # Whatever item() returned, laid out as json.dumps lays it
            # out (or refused with its TypeError).
            text = json.dumps(value, indent=len(step), allow_nan=False)
            write(text.replace("\n", newline))


def dumps(obj: Any, indent: Optional[int] = None) -> str:
    """Strict JSON: ``json.dumps(jsonify(obj), indent=indent,
    allow_nan=False)``, byte for byte. With an indent the value is
    sanitized and written in one walk (``json`` only uses its C encoder
    without one); without, the sanitized copy goes to the C encoder."""
    if indent is None:
        return json.dumps(jsonify(obj), allow_nan=False)
    parts: List[str] = []
    _write(obj, parts.append, "\n", " " * indent)
    return "".join(parts)
