"""JSON/CSV helpers shared by the library and the CLI.

Complex matrices serialize as nested row-major [re, im] pairs; probabilities
are emitted with 15 significant digits.  ``dumps`` is deterministic (sorted
keys, fixed separators) so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA = "densecode/1"


def sig15(x: float) -> float:
    """Round a probability-like value to 15 significant digits."""
    return float(f"{float(x):.15g}")


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.stack((v.real, v.imag), axis=-1).tolist()


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)
