"""Central tolerance registry.

Every numerical gate in the package reads its threshold from the active
``Tolerances`` instance so that calibration has a single knob.  The defaults
are: 1e-10 for orthonormality/unitarity defects, 1e-12 for equality
assertions, and the per-check values listed below.  Eigensystems come from
LAPACK and take no tolerance of their own.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    unitarity: float = 1e-10          # orthonormality / unitarity defects
    equality: float = 1e-12           # exact-value comparisons
    certificate: float = 1e-9         # message distinguishability gate
    rank: float = 1e-9                # relative Gram-eigenvalue cutoff
    support: float = 1e-10            # support eigenvalue cutoff (times trace)
    containment: float = 1e-9         # post-measurement support residual
    bundle: float = 1e-10             # protocol invariant defects
    identity: float = 1e-9            # impossibility-identity defects
    quadratic: float = 1e-12          # orthogonalization root residual
    case_split: float = 1e-10         # |x - 1/2| case boundary
    completion_redraw: float = 1e-8   # minimum norm before redrawing a column

    def __post_init__(self) -> None:
        # A NaN threshold would pass every ``defect > gate`` test and print as
        # invalid JSON; a negative one fails every gate.
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {f.name} must be finite and >= 0, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        # Not ``dataclasses.asdict``, which deep-copies every value.
        return {f.name: getattr(self, f.name) for f in fields(self)}


NAMES = tuple(f.name for f in fields(Tolerances))

# A Kraus pair whose lifted overlap |<phi_0|phi_1>| is below this is already
# orthogonal and is left unmixed.  A module constant, not a ``Tolerances``
# field: it selects a branch rather than gating a defect.
ALREADY_ORTHOGONAL = 1e-13

_active = Tolerances()


def get() -> Tolerances:
    """Return the active tolerance set."""
    return _active


@contextmanager
def using(**kwargs: float) -> Iterator[None]:
    """Activate the named overrides for the ``with`` block, then restore the previous set."""
    global _active
    previous = _active
    _active = replace(previous, **kwargs)
    try:
        yield
    finally:
        _active = previous
