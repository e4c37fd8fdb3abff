"""The chunked kernels against dense references, and their memory bound.

``pair_defect_norms`` and ``translate_average`` (and the checks built on the
same chunking) form their products ``ulamlab.maps._PAIR_CHUNK`` complex
entries at a time, and the batched polar snap and perturbation decompose
their values in blocks of the same size.  Shrinking that constant forces many
chunks and a ragged last one, which must not change any result.  The batched
decompositions must equal their matrix-by-matrix forms bit for bit.
"""

import contextlib
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import ulamlab.maps
from ulamlab import (
    OPERATOR,
    GroupMap,
    average_pd,
    condition_c_check,
    cyclic,
    derive_seed,
    dihedral,
    direct_product,
    estimate_checks,
    free_ball,
    ky_fan,
    linalg,
    mult_defect,
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
from ulamlab.generators import character_rep
from ulamlab.stabilize import _unitary_part

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


def test_multi_kind_pair_scan_equals_one_scan_per_kind():
    phi = perturb_unitary(regular_rep(dihedral(4)), 0.05, seed=3)
    kinds = KINDS + [schatten(1, normalized=True), OPERATOR]
    rows = pair_defect_norms(phi, kinds)
    assert rows.shape == (len(kinds), phi.domain.order**2)
    for row, kind in zip(rows, kinds):
        assert np.array_equal(row, pair_defect_norms(phi, kind))


def perturb_reference(pi, theta, seed):
    """The element-by-element perturbation loop, one draw and one exponential per value."""
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "perturb")))
    vals = pi.values.copy()
    d = pi.dim
    for x in range(len(vals)):
        if x == pi.identity_index:
            continue
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = a + a.conj().T
        scale = float(linalg.singular_values(h)[0])
        if theta > 0.0 and scale > 0.0:
            m = h * (theta / scale)
            w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
            vals[x] = vals[x] @ ((v * np.exp(1j * w)) @ v.conj().T)
    return vals


BASES = [
    regular_rep(cyclic(6)),
    regular_rep(dihedral(4)),
    regular_rep(symmetric(3)),
    character_rep(cyclic(7), 2),
]


def test_batched_perturbation_equals_element_loop():
    for pi in BASES:
        for theta in (0.0, 0.03, 1.0):
            for seed in (0, 5):
                expected = perturb_reference(pi, theta, seed)
                assert np.array_equal(perturb_unitary(pi, theta, seed).values, expected)
                # 3 values a block: ragged for 5, 7 and 23 non-identity elements
                with pair_chunk(3 * pi.dim**2):
                    assert np.array_equal(perturb_unitary(pi, theta, seed).values, expected)


def test_batched_polar_snap_equals_value_loop():
    for pi in BASES:
        phi = perturb_unitary(pi, 0.05, seed=1)
        near = GroupMap(phi.domain, phi.dim, 0.9 * phi.values + 0.01 * phi.values[::-1])
        for m in (phi, near, average_pd(phi)):
            expected = np.stack([linalg.polar(v)[0] for v in m.values])
            assert np.array_equal(_unitary_part(m)[0].values, expected)
            with pair_chunk(2 * m.dim**2):
                assert np.array_equal(_unitary_part(m)[0].values, expected)


def test_chunked_kernels_bound_memory():
    # Dense (n, n, d, d) intermediates would take 64000 * 40 * 16 bytes = 39 MiB.
    rep = regular_rep(cyclic(40))
    phi = perturb_unitary(rep, 0.05, seed=0)
    psi = average_pd(phi)
    calls = {
        "mult_defect": lambda: mult_defect(phi),
        "average_pd": lambda: average_pd(phi),
        "translate_coefficient": lambda: translate_coefficient(phi),
        "condition_c_check": lambda: condition_c_check(phi, psi),
        "estimate_checks[closeness]": lambda: estimate_checks(phi, psi),
        "estimate_checks[operator]": lambda: estimate_checks(phi, psi, [OPERATOR]),
        "perturb_unitary": lambda: perturb_unitary(rep, 0.05, seed=0),
        "_unitary_part": lambda: _unitary_part(psi),
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
            if name.startswith("estimate_checks"):
                closeness, estimates, _ = result
                for report in [closeness, *estimates]:
                    assert not report.skipped, (name, report.reason)
    assert all(peak < MEMORY_BOUND for peak in peaks.values()), peaks
