"""JSON/CSV helpers shared by the library and the CLI.

Complex matrices serialize as nested row-major [re, im] pairs; probabilities
are emitted with 15 significant digits.

``dumps(doc)`` returns exactly the text of
``json.dumps(doc, sort_keys=True, indent=2)``, so identical inputs produce
byte-identical output.  With an indent, ``json`` runs its pure-Python
encoder, which is slow for matrix-heavy documents, so ``dumps`` walks the
values a document is made of itself:

- dicts with ``str`` keys, in sorted key order;
- lists and tuples;
- ``str`` through ``json.encoder.encode_basestring_ascii``, as ``json`` does;
- ``int``, ``True``/``False``/``None`` and finite floats (``float.__repr__``,
  which also prints a subclass such as ``np.float64`` as ``json`` does).

A list that is a regular nested array of floats (a matrix of ``[re, im]``
pairs, a list of probabilities) is printed by one ``%``-format whose
template depends only on the array's shape and indent level; each float then
costs one ``repr``.

Any other value (NaN or an infinity, a non-``str`` key, a numpy integer, an
unknown object, circular or over-deep nesting) sends the whole document to
``json.dumps(doc, sort_keys=True, indent=2)`` itself, so its text, or the
error it raises, is exactly ``json``'s.  That reference path is live: a
``BundleError`` whose defect is NaN prints NaN in the CLI error document.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA = "densecode/1"

_ARRAY = (list, tuple)
# Deeper nesting (densecode documents nest about 5 deep) takes the reference
# path, which also meets circular input and json's own recursion limit.
_MAX_LEVEL = 64


def sig15(x: float) -> float:
    """Round a probability-like value to 15 significant digits."""
    return float(f"{float(x):.15g}")


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs with the shape of ``m`` (a vector, matrix or stack)."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)


class _Reference(Exception):
    """The document holds a value only ``json.dumps`` itself prints (or refuses)."""


def dumps(doc) -> str:
    try:
        return _encode(doc, 0)
    except (_Reference, ValueError):  # ValueError: an int too long for str()
        return json.dumps(doc, sort_keys=True, indent=2)


@functools.lru_cache(maxsize=256)
def _template(shape: tuple[int, ...], level: int) -> str:
    """The ``%s`` template of a regular nested array of ``shape`` at ``level``."""
    if not shape:
        return "%s"
    inner = "\n" + "  " * (level + 1)
    item = _template(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + inner[:-2] + "]"


def _float_array(o, level: int) -> str | None:
    """The text of ``o`` if it is a regular nested array of floats, else None."""
    shape = []
    x = o
    while type(x) in _ARRAY:
        if not x or len(shape) == _MAX_LEVEL:
            return None
        shape.append(len(x))
        x = x[0]
    flat = o
    for n in shape[1:]:
        rows = []
        for row in flat:
            if type(row) not in _ARRAY or len(row) != n:
                return None
            rows += row
        flat = rows
    try:
        reprs = tuple(map(float.__repr__, flat))
    except TypeError:  # a leaf that is not a float
        return None
    text = _template(tuple(shape), level) % reprs
    if "n" in text:  # 'nan' or 'inf': json prints NaN / Infinity
        raise _Reference
    return text


def _encode(o, level: int) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise _Reference
        return float.__repr__(o)
    t = type(o)
    if level >= _MAX_LEVEL or (t not in _ARRAY and t is not dict):
        raise _Reference
    if not o:
        return "[]" if t is not dict else "{}"
    inner = "\n" + "  " * (level + 1)
    if t is dict:
        for k in o:
            if type(k) is not str:
                raise _Reference
        items = [encode_basestring_ascii(k) + ": " + _encode(o[k], level + 1) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
    text = _float_array(o, level)
    if text is None:
        items = [_encode(v, level + 1) for v in o]
        text = "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"
    return text
