"""The stacked verification suites against per-configuration loop references.

Each reference below is the suite as one loop over configurations, each run
through the kernels as a one-item stack: it draws configuration k from
``rng_from(seed, k)`` and the fixed seed offsets, evaluates it on its own and
keeps the worst defect.
The stacked suites must see the same configurations and report the same
defects to 1e-14 (the independence mismatch count exactly).
"""

import numpy as np
import pytest

from densecode.channels import (
    QuantumChannel,
    apply_kraus,
    containment_residuals,
    dilate,
    dilation_unitary,
    kraus_ranks,
    lifted_kraus,
    orthogonalize_kraus_pairs,
    random_trace_preserving_kraus,
    trace_out_ancilla_state,
)
from densecode.linalg import hermitian_eigensystem, max_abs, numerical_ranks, rng_from
from densecode.states import SchmidtSpectrum, apply_local, make_schmidt_state
from densecode.suites import (
    Config,
    containment_suite,
    dilation_suite,
    draw_containment,
    draw_dilation,
    draw_independence,
    draw_orthogonalize,
    independence_suite,
    orthogonalize_suite,
)

from conftest import (
    SEED,
    draw_containment_loop,
    draw_dilation_loop,
    draw_independence_loop,
    draw_orthogonalize_loop,
    random_channel,
)


def loop_spectrum(d, rng):
    raw = rng.random(d) + 0.05
    return SchmidtSpectrum.from_values(raw / raw.sum())


def loop_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dilation_loop(seed, configs=50):
    seen, unitarity, agreement = [], 0.0, 0.0
    for k in range(configs):
        rng = rng_from(seed, k)
        d = int(rng.integers(2, 4))
        n_kraus = int(rng.integers(2, 4))
        channel = random_channel(d, n_kraus, seed + 1000 + k)
        spectrum = loop_spectrum(d, rng)
        seen.append((d, n_kraus, spectrum.lambdas))
        psi = make_schmidt_state(spectrum)
        m = dilation_unitary(channel, seed + 2000 + k)
        unitarity = max(unitarity, max_abs(m.conj().T @ m - np.eye(m.shape[0])))
        reduced = trace_out_ancilla_state(dilate(m, psi.coords), n_kraus)
        direct = apply_kraus(channel.kraus, psi.density())
        agreement = max(agreement, max_abs(reduced - direct))
    return seen, {"dilation-unitarity": unitarity, "partial-trace-agreement": agreement}


def orthogonalize_loop(seed, configs=100):
    seen, overlap, action, residual = [], 0.0, 0.0, 0.0
    for k in range(configs):
        rng = rng_from(seed, k)
        d = (2, 3, 4)[k % 3]
        channel = random_channel(d, 2, seed + 3000 + k)
        spectrum = loop_spectrum(d, rng)
        seen.append((d, 2, spectrum.lambdas))
        psi = make_schmidt_state(spectrum)
        result, mixed = orthogonalize_kraus_pairs(channel.kraus[None], psi.coords[None])
        r0, r1 = mixed[0]
        overlap = max(overlap, abs(np.vdot(apply_local(r0, psi).coords, apply_local(r1, psi).coords)))
        rho = loop_density(d * d, rng)
        after = apply_kraus(mixed[0], rho)
        action = max(action, max_abs(apply_kraus(channel.kraus, rho) - after))
        residual = max(residual, float(result.residual[0]))
    return seen, {
        "lifted-overlap": overlap,
        "channel-action-deviation": action,
        "quadratic-residual": residual,
    }


def independence_loop(seed, configs=100):
    seen, mismatches = [], 0
    for k in range(configs):
        rng = rng_from(seed, k)
        d = int(rng.integers(2, 5))
        size = int(rng.integers(2, 5))
        kraus = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(size)]
        top = hermitian_eigensystem(sum(m.conj().T @ m for m in kraus))[0][0]
        channel = QuantumChannel(d=d, kraus=tuple(0.9 / np.sqrt(top) * m for m in kraus))
        if kraus_ranks(channel.kraus) != size:
            seen.append((d, size, None))
            mismatches += 1
            continue
        spectrum = loop_spectrum(d, rng)
        seen.append((d, size, spectrum.lambdas))
        lifted = lifted_kraus(channel.kraus, make_schmidt_state(spectrum).coords)
        if numerical_ranks(lifted) != size:
            mismatches += 1
    return seen, {"lifted-gram-rank-mismatches": float(mismatches)}


def containment_loop(seed, configs=50):
    seen, worst = [], 0.0
    for k in range(configs):
        rng = rng_from(seed, k)
        channel = random_channel(2, 3, seed + 4000 + k)
        spectrum = loop_spectrum(2, rng)
        seen.append((2, 3, spectrum.lambdas))
        n_outcomes = int(rng.integers(2, 4))
        measurement = random_trace_preserving_kraus(3, n_outcomes, [seed + 5000 + k])
        psi = make_schmidt_state(spectrum)
        _, residual = containment_residuals(
            channel.kraus[None], psi.coords[None], measurement, [seed + 6000 + k]
        )
        worst = max(worst, float(residual.max()))
    return seen, {"containment-residual": worst}


SUITES = {
    "dilation": (dilation_loop, draw_dilation, dilation_suite, 50),
    "orthogonalize": (orthogonalize_loop, draw_orthogonalize, orthogonalize_suite, 100),
    "independence": (independence_loop, draw_independence, independence_suite, 100),
    "containment": (containment_loop, draw_containment, containment_suite, 50),
}


@pytest.mark.parametrize("seed", (SEED,) + tuple(range(1, 21)))
@pytest.mark.parametrize("name", tuple(SUITES))
def test_stacked_suite_matches_loop_reference(name, seed):
    loop, draw, suite, configs = SUITES[name]
    seen, defects = loop(seed, configs)
    drawn = draw(seed, configs)
    assert [c.k for c in drawn] == list(range(configs))
    for c, (d, n, lam) in zip(drawn, seen):
        assert (c.d, c.n) == (d, n)
        assert lam is None or tuple(float(x) for x in c.lam) == lam  # None: dependent draw
    report = suite(seed, configs)
    assert [c.name for c in report.checks] == list(defects)
    for check in report.checks:
        if name == "independence":
            assert check.defect == defects[check.name]
        else:
            assert abs(check.defect - defects[check.name]) <= 1e-14, check.name


DRAW_REFERENCES = {
    "dilation": draw_dilation_loop,
    "orthogonalize": draw_orthogonalize_loop,
    "independence": draw_independence_loop,
    "containment": draw_containment_loop,
}


@pytest.mark.parametrize("seed", (SEED,) + tuple(range(1, 21)))
@pytest.mark.parametrize("name", tuple(SUITES))
def test_drawn_configs_equal_loop_reference(name, seed):
    _, draw, _, configs = SUITES[name]
    drawn, want = draw(seed, configs), DRAW_REFERENCES[name](seed, configs)
    assert len(drawn) == len(want) == configs
    for c, w in zip(drawn, want):
        for field in Config._fields:
            got, ref = getattr(c, field), getattr(w, field)
            assert type(got) is type(ref), (field, c.k)
            assert ref is None or np.array_equal(got, ref), (field, c.k)
