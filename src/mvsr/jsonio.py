"""JSON interchange for the algebra objects.

One schema per kind, 0-based indices everywhere. Every report and every
file the CLI writes goes through canonical_dumps, which sorts the keys, so
identical inputs give byte-identical files. Scalars are always inlined
when a semimodule or matrix is encoded.

canonical_dumps is a direct recursive writer for the report types. It
writes the bytes of ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``,
which is its test oracle, in about two thirds of the time: with an indent,
``json.dumps`` runs the pure-Python generator encoder.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Dict

from .errors import MalformedTable, check_count
from .matrix import SemiringMatrix
from .mv import MvAlgebra
from .semimodule import FiniteSemimodule
from .semiring import FiniteSemiring


def canonical_dumps(obj: Any) -> str:
    """obj as indented JSON, as ``json.dumps(obj, sort_keys=True,
    indent=2) + "\\n"`` writes it.

    Dicts with str keys, written in sorted order; lists and tuples; str,
    escaped to ASCII by the C escape that json uses; int; float, with
    NaN and +-Infinity; bool and None. Containers hold one member per line,
    indented by two spaces per depth, and empty ones are written {} and
    []. Any other value, and a key that is not a str, raises TypeError.
    """
    return _value(obj, "\n") + "\n"


def _value(obj: Any, newline: str) -> str:
    """obj written at the depth whose line break and indent is newline."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (list, tuple)):
        return _array(obj, newline)
    if isinstance(obj, dict):
        return _object(obj, newline)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _array(items, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    return ("[" + inner
            + ("," + inner).join([_value(v, inner) for v in items])
            + newline + "]")


def _object(members, newline: str) -> str:
    # The escape raises TypeError on a key that is not a str.
    if not members:
        return "{}"
    inner = newline + "  "
    return ("{" + inner
            + ("," + inner).join([_escape(k) + ": " + _value(v, inner)
                                  for k, v in sorted(members.items())])
            + newline + "}")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


_INFINITY = float("inf")


def _table(d: Dict[str, Any], key: str):
    value = d.get(key)
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise MalformedTable(f"'{key}' must be a list of lists")
    return tuple(tuple(x) for x in value)


def _int(d: Dict[str, Any], key: str) -> int:
    return check_count(d.get(key), f"'{key}'", None, MalformedTable)


def _labels(d: Dict[str, Any]):
    value = d.get("labels")
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(x, str)
                                              for x in value):
        raise MalformedTable("'labels' must be a list of strings")
    return tuple(value)


def _kind(d: Any, expected: str) -> Dict[str, Any]:
    if not isinstance(d, dict):
        raise MalformedTable("algebra description must be a JSON object")
    if d.get("kind") != expected:
        raise MalformedTable(f"expected kind '{expected}', got {d.get('kind')!r}")
    return d


def semiring_to_dict(s: FiniteSemiring) -> Dict[str, Any]:
    return {
        "kind": "semiring",
        "size": s.size,
        "add": [list(row) for row in s.add],
        "mul": [list(row) for row in s.mul],
        "zero": s.zero,
        "one": s.one,
        "labels": [s.label(i) for i in range(s.size)],
    }


def semiring_from_dict(d: Dict[str, Any]) -> FiniteSemiring:
    _kind(d, "semiring")
    return FiniteSemiring(_int(d, "size"), _table(d, "add"), _table(d, "mul"),
                          _int(d, "zero"), _int(d, "one"), _labels(d))


def mv_to_dict(a: MvAlgebra) -> Dict[str, Any]:
    return {
        "kind": "mv",
        "size": a.size,
        "oplus": [list(row) for row in a.oplus],
        "star": list(a.star),
        "zero": a.zero,
        "labels": [a.label(i) for i in range(a.size)],
    }


def mv_from_dict(d: Dict[str, Any]) -> MvAlgebra:
    _kind(d, "mv")
    star = d.get("star")
    if not isinstance(star, list):
        raise MalformedTable("'star' must be a list")
    return MvAlgebra(_int(d, "size"), _table(d, "oplus"), tuple(star),
                     _int(d, "zero"), _labels(d))


def semimodule_to_dict(m: FiniteSemimodule) -> Dict[str, Any]:
    return {
        "kind": "semimodule",
        "scalars": semiring_to_dict(m.scalars),
        "size": m.size,
        "add": [list(row) for row in m.add],
        "zero": m.zero,
        "action": [list(row) for row in m.action],
    }


def semimodule_from_dict(d: Dict[str, Any]) -> FiniteSemimodule:
    _kind(d, "semimodule")
    scalars = semiring_from_dict(d.get("scalars"))
    return FiniteSemimodule(scalars, _int(d, "size"), _table(d, "add"),
                            _int(d, "zero"), _table(d, "action"))


def matrix_to_dict(u: SemiringMatrix) -> Dict[str, Any]:
    return {
        "kind": "matrix",
        "scalars": semiring_to_dict(u.scalars),
        "rows": u.rows,
        "cols": u.cols,
        "entries": [list(row) for row in u.entries],
    }


def matrix_from_dict(d: Dict[str, Any]) -> SemiringMatrix:
    _kind(d, "matrix")
    scalars = semiring_from_dict(d.get("scalars"))
    return SemiringMatrix(scalars, _int(d, "rows"), _int(d, "cols"),
                          _table(d, "entries"))


_DECODERS = {
    "semiring": semiring_from_dict,
    "mv": mv_from_dict,
    "semimodule": semimodule_from_dict,
    "matrix": matrix_from_dict,
}


def load_algebra(d: Dict[str, Any]):
    """Dispatch on the 'kind' tag."""
    if not isinstance(d, dict) or "kind" not in d:
        raise MalformedTable("algebra description must be an object with 'kind'")
    kind = d["kind"]
    decoder = _DECODERS.get(kind) if isinstance(kind, str) else None
    if decoder is None:
        raise MalformedTable(f"unknown kind {kind!r}")
    return decoder(d)
