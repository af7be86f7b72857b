import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecode import linalg, tolerances
from densecode.encoding import certify_lifted
from densecode.linalg import (
    complete_to_unitaries,
    complete_to_unitary,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    max_abs,
    numerical_ranks,
    random_unitaries,
    rng_from,
    rng_streams,
    rngs_from,
    unitarity_defect,
)

from conftest import EXAMPLE_M, I2, X, complete_to_unitary_loop, kron


def test_kron_identity():
    assert max_abs(kron(I2, I2) - np.eye(4)) == 0.0


def test_kron_shift_on_first_factor():
    # In the row-major product labeling, the first factor is the slow index.
    out = kron(X, I2) @ np.eye(4)[:, 0]
    assert max_abs(out - np.eye(4)[:, 2]) == 0.0


def test_kron_elementwise_oracle():
    rng = rng_from(11)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = kron(a, b)
        expected = np.empty((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        expected[i * 3 + k, j * 3 + l] = a[i, j] * b[k, l]
        assert max_abs(got - expected) < 1e-14


def test_kron_associativity():
    rng = rng_from(12)
    for _ in range(5):
        mats = [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for _ in range(3)]
        a, b, c = mats
        assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-12


def test_gram_orthonormal_pair():
    cert = certify_lifted(np.array([[1, 0, 0], [0, 1, 0]], dtype=complex))
    assert cert.gram_defect == 0.0 and cert.passed


def test_gram_repeated_vector():
    u = np.array([1 + 2j, 3.0, -1j])
    assert numerical_ranks(np.stack((u, u))) == 1
    unit = u / np.linalg.norm(u)
    cert = certify_lifted(np.stack((unit, unit)))  # the Gram matrix is all ones
    assert abs(cert.gram_defect - 1.0) < 1e-12 and not cert.passed


def test_gram_of_example_columns_is_identity():
    assert certify_lifted(EXAMPLE_M.T).gram_defect < 1e-12


def test_completion_of_standard_basis():
    cols = [np.eye(4)[:, k] for k in range(3)]
    m = complete_to_unitary(cols, seed=3)
    assert unitarity_defect(m) < 1e-10
    # Remaining direction is the fourth basis vector, up to a phase.
    assert abs(abs(m[3, 3]) - 1.0) < 1e-12


def test_completion_reproduces_inputs_bit_exactly():
    base = complete_to_unitaries(np.empty((1, 0, 5)), [77])[0]
    cols = [base[:, k] for k in range(3)]
    m = complete_to_unitary(cols, seed=4)
    for k, c in enumerate(cols):
        assert np.array_equal(m[:, k], c)
    assert unitarity_defect(m) < 1e-10


def test_completion_of_full_unitary_is_noop():
    u = random_unitaries(4, [9])[0]
    m = complete_to_unitary([u[:, k] for k in range(4)], seed=1)
    assert np.array_equal(m, u)


def test_completion_matches_example_complement():
    ours = complete_to_unitary([EXAMPLE_M[:, 0], EXAMPLE_M[:, 1]], seed=5)
    p_ours = ours[:, 2:] @ ours[:, 2:].conj().T
    p_example = EXAMPLE_M[:, 2:] @ EXAMPLE_M[:, 2:].conj().T
    assert max_abs(p_ours - p_example) < 1e-10


def test_completion_rejects_bad_input():
    with pytest.raises(ValueError):
        complete_to_unitary([np.array([1.0, 1.0])], seed=0)
    with pytest.raises(ValueError):
        complete_to_unitary([np.eye(2)[:, 0]] * 3, seed=0)


def test_completion_defect_over_many_seeds():
    for seed in range(30):
        m = complete_to_unitaries(np.empty((1, 0, 6)), [seed])[0]
        assert unitarity_defect(m) < 1e-10


def test_random_unitary_matches_gram_schmidt_completion():
    # The QR sampler draws the same Gaussian columns as the completion of the
    # empty set, so the two agree to rounding.
    for n in range(1, 13):
        for seed in range(4):
            u = random_unitaries(n, [seed])[0]
            assert unitarity_defect(u) <= tolerances.get().unitarity
            assert max_abs(u - complete_to_unitaries(np.empty((1, 0, n)), [seed])[0]) <= 1e-13


def test_random_unitaries_slices_are_random_unitary():
    seeds = [0, 7, 12345, 2 ** 64 - 1]
    for n in (1, 2, 4, 6, 9):
        stack = random_unitaries(n, seeds)
        assert stack.shape == (len(seeds), n, n)
        for u, seed in zip(stack, seeds):
            assert np.array_equal(u, random_unitaries(n, [seed])[0])


def test_completion_ignores_input_memory_layout():
    # Rows of a transposed array are strided; the completion copies them
    # contiguous, so it returns the same bytes as for a list of columns.
    cols = random_unitaries(6, [5])[0][:, :4]
    from_view = complete_to_unitary(cols.T, seed=8)
    assert np.array_equal(from_view, complete_to_unitary(list(cols.T.copy()), seed=8))
    assert np.array_equal(from_view[:, :4], cols)


def orthonormal_stack(n: int, k: int, seeds) -> np.ndarray:
    """The first k columns of seeded random unitaries, as rows: a ``(len(seeds), k, n)`` stack."""
    return np.swapaxes(random_unitaries(n, seeds)[:, :, :k], -1, -2)


@pytest.mark.parametrize("n", range(1, 17))
def test_stacked_completion_matches_loop_reference(n):
    # Every k in 0..n, stacks of 1-25 sets, seeds across the 64-bit range.
    for k in range(n + 1):
        size = 1 + (7 * n + 3 * k) % 25
        seeds = [(0x9E3779B97F4A7C15 * b + 977 * n + 31 * k) % 2 ** 64 for b in range(size)]
        cols = orthonormal_stack(n, k, [100 * n + k + b for b in range(size)])
        got = complete_to_unitaries(cols, seeds)
        assert got.shape == (size, n, n)
        for c, seed, u in zip(cols, seeds, got, strict=True):
            assert np.array_equal(u, complete_to_unitary_loop(c, seed, dim=n))
        assert np.array_equal(complete_to_unitary(cols[0], seeds[0]), got[0])


def test_stacked_completion_matches_loop_reference_under_forced_redraws():
    # A redraw threshold of 1.0 rejects a sizeable share of draws: each
    # rejecting set reads its next draw while the others move on.
    rejected = []
    with tolerances.using(completion_redraw=1.0):
        for n in range(2, 11):
            for k in range(n):
                size = 1 + (5 * n + k) % 25
                seeds = [1000 * n + 10 * k + b for b in range(size)]
                cols = orthonormal_stack(n, k, seeds)
                got = complete_to_unitaries(cols, seeds)
                for c, seed, u in zip(cols, seeds, got, strict=True):
                    reference = complete_to_unitary_loop(c, seed, dim=n, rejected=rejected)
                    assert np.array_equal(u, reference)
    assert len(rejected) > 100 and max(rejected) < 1.0


def test_completion_refuses_an_unreachable_redraw_threshold():
    # No projected norm reaches 1e9, so every draw would be rejected: each
    # column gives up after its last allowed draw instead of looping.
    cols = orthonormal_stack(4, 2, [1, 2, 3])
    with tolerances.using(completion_redraw=1e9):
        with pytest.raises(ValueError, match=r"1000 draws for column 2 all fell below completion_redraw = 1e\+09"):
            complete_to_unitaries(cols, [1, 2, 3])
        with pytest.raises(ValueError, match="completion_redraw"):
            complete_to_unitaries(np.empty((1, 0, 3)), [5])


def test_stacked_completion_gates():
    cols = orthonormal_stack(4, 2, [1, 2, 3])
    with pytest.raises(ValueError, match="one seed per set"):
        complete_to_unitaries(cols, [1, 2])
    with pytest.raises(ValueError, match="one seed per set"):
        complete_to_unitaries(cols[0], [1])
    with pytest.raises(ValueError, match="3 columns exceed dimension 2"):
        complete_to_unitaries(np.zeros((1, 3, 2)), [0])
    bad = cols.copy()
    bad[1, 1] *= 1.0 + 1e-6  # one set of the stack is not orthonormal
    with pytest.raises(ValueError, match="input columns are not orthonormal"):
        complete_to_unitaries(bad, [1, 2, 3])
    bad[1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite entries"):
        complete_to_unitaries(bad, [1, 2, 3])
    assert complete_to_unitaries(np.zeros((0, 1, 3)), []).shape == (0, 3, 3)


def test_stacked_eigensystems_and_ranks_match_one_by_one():
    rng = rng_from(13)
    g = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    g[2, 2] = g[2, 0] + 2j * g[2, 1]  # one dependent collection
    h = g.conj() @ np.swapaxes(g, -1, -2)
    w, v = hermitian_eigensystem(h)
    ranks = numerical_ranks(g)
    for k in range(5):
        wk, vk = hermitian_eigensystem(h[k])
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert ranks[k] == numerical_ranks(g[k])
    assert list(ranks) == [3, 3, 2, 3, 3]


def test_eigenvalues_of_diagonal():
    w = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0], atol=1e-12)


def test_eigenvalues_of_projector():
    u = np.array([0.6, 0.8j, 0.0])
    w = hermitian_eigenvalues(np.outer(u, u.conj()))
    assert np.allclose(w, [1.0, 0.0, 0.0], atol=1e-12)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_left_right_gram_share_spectrum_4x4():
    rng = rng_from(31)
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w1 = hermitian_eigenvalues(y.conj().T @ y)
    w2 = hermitian_eigenvalues(y @ y.conj().T)
    assert max_abs(w1 - w2) < 1e-9


def test_left_right_gram_share_spectrum_random():
    rng = rng_from(32)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w1 = hermitian_eigenvalues(y.conj().T @ y)
        w2 = hermitian_eigenvalues(y @ y.conj().T)
        assert max_abs(np.sort(w1) - np.sort(w2)) < 1e-8


def test_eigensystem_reconstructs():
    rng = rng_from(33)
    for n in (2, 5, 16, 25):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = g + g.conj().T
        w, v = hermitian_eigensystem(h)
        assert np.all(np.diff(w) <= 0.0)
        assert max_abs(v @ np.diag(w) @ v.conj().T - h) < 1e-11
        assert unitarity_defect(v) < 1e-12


def test_eigensystem_degenerate_spectra():
    w, v = hermitian_eigensystem(np.eye(6))
    assert np.allclose(w, 1.0) and unitarity_defect(v) < 1e-12
    # Repeated eigenvalues from a rank-deficient Gram matrix.
    rng = rng_from(34)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h = np.outer(u, u.conj()) + 2.0 * np.eye(5)
    w, v = hermitian_eigensystem(h)
    assert max_abs(v @ np.diag(w) @ v.conj().T - h) < 1e-12
    assert np.allclose(w[1:], 2.0, atol=1e-12)


def test_completion_deterministic_per_seed():
    a = complete_to_unitary([np.eye(4)[:, 0]], seed=123)
    b = complete_to_unitary([np.eye(4)[:, 0]], seed=123)
    assert np.array_equal(a, b)
    c = complete_to_unitary([np.eye(4)[:, 0]], seed=124)
    assert not np.array_equal(a, c)


EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1)
# One stream, both sides of the batching cut-off, a mid-size batch, and
# counts whose last block of keys is short enough to go through ``rng_from``.
EDGE_COUNTS = (1, linalg._STREAM_BATCH_MIN - 1, linalg._STREAM_BATCH_MIN, 13, 257, 258)


def stream_draws(rng) -> list[np.ndarray]:
    return [rng.random(5), rng.standard_normal(3), rng.integers(2, 5, size=2)]


def assert_streams_equal_rng_from(seed, count):
    k = -1
    for k, rng in enumerate(rng_streams(seed, count)):
        for got, want in zip(stream_draws(rng), stream_draws(rng_from(seed, k))):
            assert np.array_equal(got, want), (seed, count, k)
    assert k == count - 1


# Warnings are errors: a wrapping uint32 *scalar* product would warn.
@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    seed=st.sampled_from(EDGE_SEEDS) | st.integers(min_value=0, max_value=2**64 - 1),
    count=st.sampled_from(EDGE_COUNTS) | st.integers(min_value=100, max_value=300),
)
@example(seed=2**64 - 1, count=300)
def test_rng_streams_equal_rng_from(seed, count):
    assert_streams_equal_rng_from(seed, count)


@pytest.mark.filterwarnings("error")
def test_rng_streams_equal_rng_from_at_every_edge():
    for seed in EDGE_SEEDS:
        for count in EDGE_COUNTS:
            assert_streams_equal_rng_from(seed, count)


def test_rng_streams_keys_at_the_last_one_word_index():
    # Indices up to 2**32 - 1 are one spawn-key word; ``rng_streams`` batches
    # only those, so the last of them must still give ``rng_from``'s key.
    pool = np.random.SeedSequence(7).pool
    keys = linalg._philox_keys(pool, 2**32 - 3, 2**32)
    for key, k in zip(keys, range(2**32 - 3, 2**32)):
        assert key.tolist() == rng_from(7, k).bit_generator.state["state"]["key"].tolist()


def test_rng_streams_derive_keys_lazily():
    tracemalloc.start()
    try:
        first = next(rng_streams(7, 2**40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert np.array_equal(first.random(5), rng_from(7, 0).random(5))
    assert list(rng_streams(7, 0)) == []


def assert_rngs_equal_rng_from(seeds):
    rngs = rngs_from(seeds)
    assert len(rngs) == len(seeds)
    for seed, rng in zip(seeds, rngs):
        for got, want in zip(stream_draws(rng), stream_draws(rng_from(seed))):
            assert np.array_equal(got, want), (seeds, seed)


# Seeds past 64 bits and below zero are masked to 64 bits, as ``rng_from`` does.
PER_SEED_EDGES = (*EDGE_SEEDS, 2**70 + 3, -(2**64) - 5)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seeds=st.lists(
        st.sampled_from(PER_SEED_EDGES) | st.integers(min_value=-(2**70), max_value=2**70),
        max_size=40,
    )
)
@example(seeds=list(PER_SEED_EDGES))
@example(seeds=[5, 5])
def test_rngs_from_equal_rng_from(seeds):
    assert_rngs_equal_rng_from(seeds)


def test_per_seed_generators_feed_the_stacked_draws():
    # ``random_unitaries`` and ``complete_to_unitaries`` take their streams
    # from ``rngs_from``: a stack matches the same seeds drawn one at a time.
    seeds = [2**64 - 1, 0, 2**32, 1099511627779]
    assert_rngs_equal_rng_from(seeds)
    stacked = random_unitaries(3, seeds)
    for seed, u in zip(seeds, stacked):
        assert np.array_equal(u, random_unitaries(3, [seed])[0])
    cols = np.eye(4, dtype=complex)[None, :1].repeat(len(seeds), axis=0)
    for seed, m in zip(seeds, complete_to_unitaries(cols, seeds)):
        assert np.array_equal(m, complete_to_unitary_loop(cols[0], seed))
