"""The two chunked kernels against dense references, and their memory bound.

``pair_defect_norms`` and ``translate_average`` (and the checks built on the
same chunking) form their products ``ulamlab.maps._PAIR_CHUNK`` complex
entries at a time.  Shrinking that constant forces many chunks and a ragged
last one, which must not change any result.
"""

import contextlib
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import ulamlab.maps
from ulamlab import (
    OPERATOR,
    average_pd,
    closeness_bound_check,
    condition_c_check,
    cyclic,
    dihedral,
    direct_product,
    free_ball,
    ky_fan,
    mult_defect,
    norm_estimate_check,
    pair_defect_norms,
    perturb_unitary,
    random_map,
    regular_rep,
    schatten,
    symmetric,
    translate_average,
    translate_coefficient,
    uinorm,
)

GROUPS = [
    cyclic(1),
    cyclic(2),
    cyclic(5),
    dihedral(3),
    dihedral(4),
    symmetric(3),
    direct_product(cyclic(2), cyclic(3)),
]
KINDS = [OPERATOR, schatten(1), schatten(2, normalized=True), ky_fan(2)]
TOL = 1e-14
MEMORY_CHUNK = 1 << 14
MEMORY_BOUND = 8 << 20  # bytes


@contextlib.contextmanager
def pair_chunk(entries: int):
    saved = ulamlab.maps._PAIR_CHUNK
    ulamlab.maps._PAIR_CHUNK = entries
    try:
        yield
    finally:
        ulamlab.maps._PAIR_CHUNK = saved


def dense_pair_norms(phi, pairs, kind):
    v = phi.values
    return np.array([uinorm(v[x] @ v[y] - v[k], kind) for (x, y), k in pairs])


def finite_pairs(g):
    return [((x, y), g.mul[x, y]) for x in range(g.order) for y in range(g.order)]


maps_on_groups = st.builds(
    lambda g, dim, seed: random_map(g, dim, sup=1.0, seed=seed),
    st.sampled_from(GROUPS),
    st.integers(1, 3),
    st.integers(0, 2**16),
)


@settings(max_examples=60, deadline=None)
@given(phi=maps_on_groups, chunk=st.integers(1, 200), kind=st.sampled_from(KINDS))
def test_pair_defect_norms_chunked_matches_dense(phi, chunk, kind):
    expected = dense_pair_norms(phi, finite_pairs(phi.domain), kind)
    full_value, full_witness = mult_defect(phi, kind)
    with pair_chunk(chunk):
        norms = pair_defect_norms(phi, kind)
        value, witness = mult_defect(phi, kind)
    assert norms.shape == (phi.domain.order**2,)
    assert np.max(np.abs(norms - expected)) <= TOL
    assert witness == full_witness
    assert value == full_value
    assert abs(value - expected.max()) <= TOL


@settings(max_examples=30, deadline=None)
@given(
    radius=st.integers(1, 2),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    chunk=st.integers(1, 200),
    kind=st.sampled_from(KINDS),
)
def test_pair_defect_norms_chunked_matches_dense_on_free_ball(radius, dim, seed, chunk, kind):
    ball = free_ball(2, radius)
    phi = random_map(ball, dim, seed=seed)
    expected = dense_pair_norms(phi, sorted(ball.pair_index.items()), kind)
    full_witness = mult_defect(phi, kind)[1]
    with pair_chunk(chunk):
        norms = pair_defect_norms(phi, kind)
        witness = mult_defect(phi, kind)[1]
    assert np.max(np.abs(norms - expected)) <= TOL
    assert witness == full_witness


@settings(max_examples=60, deadline=None)
@given(phi=maps_on_groups, chunk=st.integers(1, 400))
def test_translate_average_chunked_matches_dense(phi, chunk):
    g, v = phi.domain, phi.values
    n = g.order
    pd = np.array([sum(v[g.mul[x, y]] @ v[y].conj().T for y in range(n)) / n for x in range(n)])
    coeff = np.array([sum(v[g.mul[x, y]].conj().T @ v[y] for y in range(n)) / n for x in range(n)])
    with pair_chunk(chunk):
        shifted = translate_average(phi, lambda t, vals: t.sum(axis=1))
        averaged = average_pd(phi).values
        coefficients = translate_coefficient(phi).values
    assert np.max(np.abs(shifted - v.mean(axis=0))) <= TOL
    assert np.max(np.abs(averaged - pd)) <= TOL
    assert np.max(np.abs(coefficients - coeff)) <= TOL


def test_chunked_kernels_bound_memory():
    # Dense (n, n, d, d) intermediates would take 64000 * 40 * 16 bytes = 39 MiB.
    phi = perturb_unitary(regular_rep(cyclic(40)), 0.05, seed=0)
    psi = average_pd(phi)
    calls = {
        "mult_defect": lambda: mult_defect(phi),
        "average_pd": lambda: average_pd(phi),
        "translate_coefficient": lambda: translate_coefficient(phi),
        "condition_c_check": lambda: condition_c_check(phi, psi),
        "closeness_bound_check": lambda: closeness_bound_check(phi, psi),
        "norm_estimate_check": lambda: norm_estimate_check(phi, psi),
    }
    peaks = {}
    with pair_chunk(MEMORY_CHUNK):
        for name, call in calls.items():
            tracemalloc.start()
            try:
                result = call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if hasattr(result, "skipped"):
                assert not result.skipped, (name, result.reason)
    assert all(peak < MEMORY_BOUND for peak in peaks.values()), peaks
