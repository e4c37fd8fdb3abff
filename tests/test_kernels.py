"""The chunked kernels against dense references, and their memory bound.

``pair_defect_norms`` and ``translate_average`` (and the checks built on the
same chunking) form their products at most ``ulamlab.executor._BLOCK``
complex entries a thread at a time, serial or split, and the batched polar
snap and perturbation decompose their values in blocks of the same size.
Shrinking that constant forces many chunks and a ragged last one, which must
not change any result; at the shipped size every kernel stays within one
memory bound, at one kernel thread as at two.  The batched decompositions must equal their
matrix-by-matrix forms bit for bit.

The same kernels split their blocks across the kernel threads of the calling
thread's budget (``ulamlab.executor._kernel_threads``).  Every budget must
give the serial result bit for bit.

The operator-norm maxima (``ulamlab.maps._op_argmax``) decompose only the
matrices whose upper bound can reach the max.  They must give the max and the
first argmax of every matrix's largest singular value bit for bit.
"""

import contextlib
import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ulamlab.executor
import ulamlab.maps
from ulamlab import (
    OPERATOR,
    GroupMap,
    NotRepairableError,
    SingularInputError,
    average_pd,
    condition_c_check,
    conjugate_rep,
    cyclic,
    defect_report,
    derive_seed,
    dihedral,
    direct_product,
    distance,
    estimate_checks,
    free_ball,
    iso_defect,
    ky_fan,
    linalg,
    mult_defect,
    pair_defect_norms,
    pd_min_eig,
    perturb_unitary,
    random_map,
    regular_rep,
    schatten,
    stabilize,
    sup_norm,
    symmetric,
    translate_average,
    translate_coefficient,
    unit_defect,
)
from ulamlab.executor import _parallel
from ulamlab.generators import character_rep
from ulamlab.stabilize import _unitary_part

from oracles import reduce_word, spectral_stack, uinorm

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
MEMORY_BOUND = 8 << 20  # bytes


@contextlib.contextmanager
def block_size(entries: int):
    saved = ulamlab.executor._BLOCK
    ulamlab.executor._BLOCK = entries
    try:
        yield
    finally:
        ulamlab.executor._BLOCK = saved


@contextlib.contextmanager
def kernel_threads(budget: int, min_split: int = 1):
    """Give the calling thread ``budget`` kernel threads; by default every block may split."""
    saved = ulamlab.executor._MIN_SPLIT
    ulamlab.executor._MIN_SPLIT = min_split
    try:
        with ulamlab.executor._kernel_threads(budget):
            yield
    finally:
        ulamlab.executor._MIN_SPLIT = saved


class CountingPool:
    def __init__(self, pool):
        self.pool = pool
        self.submits = 0

    def submit(self, *args):
        self.submits += 1
        return self.pool.submit(*args)


@pytest.fixture
def kernel_pool(monkeypatch):
    pool = CountingPool(ulamlab.executor._executor())
    monkeypatch.setattr(ulamlab.executor, "_executor", lambda: pool)
    return pool


def dense_pair_norms(phi, pairs, kind):
    v = phi.values
    return np.array([uinorm(v[x] @ v[y] - v[k], kind) for (x, y), k in pairs])


def finite_pairs(g):
    return [((x, y), g.mul[x, y]) for x in range(g.order) for y in range(g.order)]


def ball_pairs(ball):
    """Every pair of the ball whose reduced product stays inside, sorted."""
    index = {w: i for i, w in enumerate(ball.words)}
    return [
        ((i, j), index[product])
        for i, wi in enumerate(ball.words)
        for j, wj in enumerate(ball.words)
        if (product := reduce_word(wi + wj)) in index
    ]


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
    with block_size(chunk):
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
    expected = dense_pair_norms(phi, ball_pairs(ball), kind)
    full_witness = mult_defect(phi, kind)[1]
    with block_size(chunk):
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
    with block_size(chunk):
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
        if x == pi.domain.identity:
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
                with block_size(3 * pi.dim**2):
                    assert np.array_equal(perturb_unitary(pi, theta, seed).values, expected)


def test_batched_polar_snap_equals_value_loop():
    for pi in BASES:
        phi = perturb_unitary(pi, 0.05, seed=1)
        near = GroupMap(phi.domain, phi.dim, 0.9 * phi.values + 0.01 * phi.values[::-1])
        for m in (phi, near, average_pd(phi)):
            expected = np.stack([linalg.polar(v)[0] for v in m.values])
            assert np.array_equal(_unitary_part(m)[0].values, expected)
            with block_size(2 * m.dim**2):
                assert np.array_equal(_unitary_part(m)[0].values, expected)


def test_chunked_kernels_bound_memory():
    # Dense (n, n, d, d) intermediates would take 64000 * 40 * 16 bytes = 39 MiB.
    # Every thread takes blocks of at most the shipped _BLOCK entries, at one
    # kernel thread (a --workers thread) as at two.
    for budget in (1, 2):
        with ulamlab.executor._kernel_threads(budget):
            assert_kernels_bound_memory()


def assert_kernels_bound_memory():
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
    for name, call in calls.items():
        tracemalloc.start()
        try:
            result = call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name.startswith("estimate_checks"):
            _, skipped, _ = result
            assert not skipped, (name, skipped)
    assert all(peak < MEMORY_BOUND for peak in peaks.values()), peaks


def test_pd_min_eig_holds_one_gram():
    # symmetric:4's Gram is 576 x 576 (5 MiB).  Its Hermitian part, or G - G*
    # on the refusal, is written into one array a few block rows at a time,
    # so neither path holds two Grams at one or two kernel threads.
    g = symmetric(4)
    phi = perturb_unitary(regular_rep(g), 0.03, seed=0)
    gram = 16 * (g.order * phi.dim) ** 2
    for budget in (1, 2):
        with ulamlab.executor._kernel_threads(budget):
            for psi, hermitian in ((average_pd(phi), True), (phi, False)):
                tracemalloc.start()
                try:
                    value = pd_min_eig(psi)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert np.isfinite(value) == hermitian
                assert peak < 2 * gram, (budget, hermitian, peak / gram)


def test_estimate_bounds_carry_the_worst_element_margin():
    # Each check's Bound must carry the smallest of the per-element margins
    # ``row max (closeness) or row mean (estimates) - ||phi(x) - psi(x)||``,
    # bit for bit.  On a perturbed rep the bounds are tight at the identity,
    # so the smallest margin sits there; on a conjugated (exact) rep every
    # margin is rounding, so it sits at other elements.
    kinds = [schatten(1, normalized=True), schatten(2, normalized=True)]
    reduced = [("closeness", OPERATOR, np.max)]
    reduced += [(f"norm_estimate[{kind.describe()}]", kind, np.mean) for kind in kinds]
    maps = [perturb_unitary(regular_rep(dihedral(4)), 0.03, 3)]
    maps.append(perturb_unitary(regular_rep(cyclic(6)), 0.03, 7))
    maps += [conjugate_rep(regular_rep(g), seed=1) for g in (dihedral(4), cyclic(6))]
    for phi in maps:
        psi = average_pd(phi)
        n = phi.domain.order
        checks, skipped, _ = estimate_checks(phi, psi, kinds)
        assert not skipped
        sigma = linalg.singular_values(phi.values - psi.values)
        for name, kind, reduce in reduced:
            bounds = reduce(pair_defect_norms(phi, kind).reshape(n, n), axis=1)
            lefts = linalg.gauge(sigma, kind)
            margins = [float(b - left) for b, left in zip(bounds, lefts)]
            assert checks[name].margin == min(margins), name


SPLIT_MAPS = {
    "dihedral:4": perturb_unitary(regular_rep(dihedral(4)), 0.05, seed=2),
    "cyclic:7": perturb_unitary(character_rep(cyclic(7), 2), 0.05, seed=3),
}


def split_consumers(phi):
    """Every kernel that splits its blocks, on ``phi`` and maps derived from it."""
    psi = average_pd(phi)
    near = GroupMap(phi.domain, phi.dim, 0.9 * phi.values + 0.01 * phi.values[::-1])
    return {
        "pair_scan": pair_defect_norms(phi, KINDS),
        "mult_defect": mult_defect(phi, schatten(1)),
        "average_pd": psi.values,
        "translate_coefficient": translate_coefficient(phi).values,
        "condition_c_check": condition_c_check(phi, psi),
        "_unitary_part": _unitary_part(near)[0].values,
        "perturb_unitary": perturb_unitary(phi, 0.3, seed=4).values,
        "unit_defect": unit_defect(near),
        "iso_defect": iso_defect(near),
        "sup_norm": sup_norm(near),
        "distance": distance(phi, psi),
    }


@pytest.mark.parametrize("name", sorted(SPLIT_MAPS))
def test_split_kernels_equal_serial(name, kernel_pool):
    phi = SPLIT_MAPS[name]
    with kernel_threads(1):
        expected = split_consumers(phi)
    assert kernel_pool.submits == 0
    # 3 threads cut 8 values (or 7) into ragged shares; the small chunk gives
    # every share several blocks.
    for budget in (1, 2, 3):
        for chunk in (ulamlab.executor._BLOCK, 3 * phi.dim**2):
            with kernel_threads(budget), block_size(chunk):
                before = kernel_pool.submits
                got = split_consumers(phi)
            assert (kernel_pool.submits > before) == (budget > 1)
            for key, value in expected.items():
                same = np.array_equal(got[key], value) if isinstance(value, np.ndarray) else got[key] == value
                assert same, (key, budget, chunk)


def test_split_scan_keeps_the_first_witness():
    # 0.9 times the regular rep of cyclic:8, identity kept: the 7 pairs (x, -x)
    # tie for the largest defect, at indices 15, 22, ..., 57 of the scan, so
    # they fall into every share.
    rep = regular_rep(cyclic(8))
    values = 0.9 * rep.values
    values[rep.domain.identity] = rep.values[rep.domain.identity]
    phi = GroupMap(rep.domain, rep.dim, values)
    value, witness = mult_defect(phi)
    assert np.count_nonzero(pair_defect_norms(phi) == value) == 7
    assert witness == (1, 7)
    for budget in (2, 3):
        with kernel_threads(budget):
            assert mult_defect(phi) == (value, witness)


def test_small_maps_start_no_kernel_thread(kernel_pool):
    phi = perturb_unitary(regular_rep(dihedral(4)), 0.03, seed=0)
    with ulamlab.executor._kernel_threads(8):
        psi = average_pd(phi)
        stabilize(phi)
        estimate_checks(phi, psi, [schatten(1, normalized=True)])
        perturb_unitary(regular_rep(dihedral(4)), 0.03, seed=1)
    assert kernel_pool.submits == 0


def test_parallel_workers_share_the_cores(monkeypatch, kernel_pool):
    # cyclic:14 has 14^4 pair entries, enough for two kernel threads.
    phi = perturb_unitary(regular_rep(cyclic(14)), 0.05, seed=0)
    monkeypatch.setattr(ulamlab.executor, "_cores", lambda: 2)
    with ulamlab.executor._kernel_threads(1):
        expected = mult_defect(phi)
    scans = [lambda: mult_defect(phi)] * 4
    for workers in (2, 4):
        assert list(_parallel(scans, 4, workers)) == [expected] * 4
    assert kernel_pool.submits == 0
    assert list(_parallel(scans, 4, 1)) == [expected] * 4
    assert kernel_pool.submits == 4


def test_workers_split_kernels_on_spare_cores(monkeypatch, kernel_pool):
    # Three workers on six cores: each splits its scans in two, all through the
    # one kernel pool, and thread switches are forced as often as possible.
    phi = perturb_unitary(regular_rep(cyclic(14)), 0.05, seed=0)
    with ulamlab.executor._kernel_threads(1):
        expected = [mult_defect(phi, kind) for kind in KINDS] * 3
    monkeypatch.setattr(ulamlab.executor, "_cores", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scans = [lambda kind=kind: mult_defect(phi, kind) for kind in KINDS] * 3
        assert list(_parallel(scans, len(scans), 3)) == expected
    finally:
        sys.setswitchinterval(interval)
    assert kernel_pool.submits == len(scans)


def split_scan(phi):
    with kernel_threads(2):
        return mult_defect(phi)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_makes_its_own_kernel_pool():
    phi = SPLIT_MAPS["dihedral:4"]
    expected = split_scan(phi)  # the parent's pool exists before the fork
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(split_scan, (phi,)).get(timeout=60) == expected


# Stacks for the filtered operator-norm max: the gate lets through at least
# ``_MIN_FILTER_COUNT`` matrices of ``_MIN_FILTER`` entries in all, so 1..64
# matrices of dimension 1..8 fall on both sides of it.  The second bound pass
# runs when ``_MIN_FILTER_COUNT`` candidates remain besides the top matrix,
# which the "spectra", "ties" and "unitary_multiples" stacks of 17 and more
# matrices reach and smaller or "random" stacks do not.
STACK_KINDS = ("random", "spectra", "zeros", "ties", "unitary_multiples")
SCALES = (1.0, 1e-300, 1e200)


def op_reference(stack):
    """The max and first argmax of every matrix's largest singular value."""
    norms = linalg.singular_values(stack)[:, 0]
    w = int(np.argmax(norms))
    return float(norms[w]), w


def make_stack(kind, count, dim, seed):
    rng = np.random.default_rng(seed)
    shape = (count, dim, dim)
    if kind == "zeros":
        return np.zeros(shape, dtype=np.complex128)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "unitary_multiples":  # every singular value of every matrix is 2.5
        return 2.5 * np.linalg.qr(a)[0]
    if kind == "spectra":
        # Norms within 1e-3 of each other, half of them with a flat spectrum:
        # the largest bound then rarely belongs to the largest norm.
        top = 1.0 + 1e-3 * rng.random(count)
        sigma = top[:, None] * rng.random((count, dim)) * rng.integers(0, 2, (count, 1))
        sigma[:, 0] = top
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return (np.linalg.qr(a)[0] * sigma[:, None, :]) @ np.linalg.qr(b)[0]
    a *= rng.uniform(0.2, 1.0, count)[:, None, None]
    if kind == "ties":  # the largest matrix repeated, and two copies of another
        top = np.argmax(linalg.singular_values(a)[:, 0])
        a[rng.integers(0, count, 3)] = a[top]
        a[rng.integers(0, count, 2)] = a[0]
    return a


def same_float(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(STACK_KINDS),
    count=st.integers(1, 64),
    dim=st.integers(1, 8),
    scale=st.sampled_from(SCALES),
    seed=st.integers(0, 2**16),
    budget=st.sampled_from((1, 2)),
)
def test_filtered_operator_max_equals_full_decomposition(kind, count, dim, scale, seed, budget):
    stack = make_stack(kind, count, dim, seed) * scale
    value, w = op_reference(stack)
    with kernel_threads(budget):
        got_value, got_w = ulamlab.maps._op_argmax(count, dim, stack.__getitem__)
    assert got_w == w
    assert same_float(got_value, value)


def tied_values(g, dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.broadcast_to(a, (g.order, dim, dim))


MAP_VALUES = {
    "random": lambda g, dim, seed: random_map(g, dim, sup=1.0, seed=seed).values,
    "zeros": lambda g, dim, seed: np.zeros((g.order, dim, dim), dtype=np.complex128),
    "ties": tied_values,
    "unitary_multiples": lambda g, dim, seed: make_stack("unitary_multiples", g.order, dim, seed),
}
# Scales that take each stack to about 1e-300 and 1e200 without overflow:
# products of values square their scale.
MAP_SCALES = (1.0, 1e-300, 1e-150, 1e100)
FILTER_GROUPS = [cyclic(2), cyclic(5), dihedral(4), cyclic(16), dihedral(10)]


def operator_maxima(phi, psi):
    return {
        "mult_defect": mult_defect(phi),
        "unit_defect": unit_defect(phi),
        "iso_defect": iso_defect(phi),
        "sup_norm": sup_norm(phi),
        "distance": distance(phi, psi),
    }


def reference_maxima(phi, psi):
    v, g = phi.values, phi.domain
    eye = np.eye(phi.dim)
    xs, ys = np.divmod(np.arange(g.order**2), g.order)
    eps, pair = op_reference(v[xs] @ v[ys] - v[g.mul[xs, ys]])
    left = linalg.singular_values(eye - v @ linalg.adj(v))[:, 0]
    right = linalg.singular_values(eye - linalg.adj(v) @ v)[:, 0]
    worst = np.maximum(left, right)
    element = int(np.argmax(worst))
    return {
        "mult_defect": (eps, (int(xs[pair]), int(ys[pair]))),
        "unit_defect": (float(worst[element]), element),
        "iso_defect": op_reference(eye - linalg.adj(v) @ v)[0],
        "sup_norm": op_reference(v)[0],
        "distance": op_reference(v - psi.values)[0],
    }


@settings(max_examples=60, deadline=None)
@given(
    g=st.sampled_from(FILTER_GROUPS),
    dim=st.integers(1, 6),
    kind=st.sampled_from(sorted(MAP_VALUES)),
    scale=st.sampled_from(MAP_SCALES),
    seed=st.integers(0, 2**16),
    budget=st.sampled_from((1, 2)),
)
def test_operator_maxima_equal_full_decomposition(g, dim, kind, scale, seed, budget):
    phi = GroupMap(g, dim, MAP_VALUES[kind](g, dim, seed) * scale)
    psi = GroupMap(g, dim, random_map(g, dim, sup=1.0, seed=seed + 1).values * scale)
    expected = reference_maxima(phi, psi)
    with kernel_threads(budget):
        got = operator_maxima(phi, psi)
    for name, value in expected.items():
        value, witness = value if isinstance(value, tuple) else (value, None)
        got_value, got_witness = got[name] if witness is not None else (got[name], None)
        assert got_witness == witness, name
        assert same_float(got_value, value), name


def test_non_finite_matrix_keeps_the_full_decomposition():
    # An inf entry gives that matrix NaN singular values and a NaN bound:
    # every matrix stays a candidate and the NaN is found where it was.
    stack = make_stack("random", 24, 4, seed=5)
    stack[7, 1, 2] = np.inf
    norms = linalg.singular_values(stack)[:, 0]
    assert np.isnan(norms[7]) and not np.isnan(np.delete(norms, 7)).any()
    value, w = ulamlab.maps._op_argmax(24, 4, stack.__getitem__)
    assert (w, np.isnan(value)) == (int(np.argmax(norms)), True)


def spectrum(kind, dim):
    """Singular values with largest 1: one of the spectra the single-precision bound meets."""
    if kind == "rank_one":
        return np.eye(1, dim)[0]
    if kind == "flat":
        return np.ones(dim)
    sigma = np.geomspace(1.0, 1e-3, dim)
    sigma[: {"geometric": 1, "tied_2": 2, "tied_4": 4}[kind]] = 1.0
    return sigma


def spectra_stack(dim, seed):
    """16 matrices: each spectrum at largest singular value 1, 1 - 1e-6 and
    0.5, and a rank-one matrix of equal entries, whose single-precision sum
    of squares overflows from ``dim`` about 150."""
    rng = np.random.default_rng(seed)
    mats = []
    for kind in ("rank_one", "flat", "geometric", "tied_2", "tied_4"):
        for top in (1.0, 1.0 - 1e-6, 0.5):
            a = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
            q = np.linalg.qr(a)[0]
            mats.append((q[0] * (top * spectrum(kind, dim))) @ linalg.adj(q[1]))
    mats.append(np.full((dim, dim), (1.0 + 1.0j) / (np.sqrt(2.0) * dim)))
    return np.stack(mats)


@pytest.mark.parametrize("dim", [96, 200, 256])
def test_single_precision_bounds_hold_on_fixed_spectra(dim):
    slack = ulamlab.maps._bound_slack(dim)
    base = spectra_stack(dim, seed=dim)
    for scale in SCALES:
        stack = base * scale
        sigma = linalg.singular_values(stack)[:, 0]
        bounds = ulamlab.maps._op_bounds(stack)
        finite = np.isfinite(bounds)
        assert np.all(bounds[finite] >= sigma[finite] / (1.0 + slack)), (scale, bounds / sigma)
        assert finite[-1] == (dim < 150), bounds[-1]  # the overflow stays a candidate
        fine = ulamlab.maps._op_bounds(stack, 4, single=False)
        assert np.all(fine >= sigma / (1.0 + linalg.FROBENIUS_SLACK)), (scale, fine / sigma)
        w = int(np.argmax(sigma))
        value, got_w = ulamlab.maps._op_argmax(len(stack), dim, stack.__getitem__)
        assert (value, got_w) == (sigma[w], w), scale


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rank_one", "tied", "flat", "near_unitary"]),
    dim=st.sampled_from([1, 2, 3, 4, 24, 255, 256, 257]),
    count=st.integers(1, 3),
    scale=st.sampled_from([2.0**-500, 1.0, 2.0**500]),
    bad=st.sampled_from([np.nan, np.inf]),
    seed=st.integers(0, 2**16),
)
def test_op_bounds_hold_across_the_single_precision_limit(kind, dim, count, scale, bad, seed):
    # Up to d = 4 the first-order shortfall exceeds 2 d^2 u; from d = 257 the
    # first pass runs in double precision.
    stack = spectral_stack(seed, count, dim, kind, scale)
    sigma = linalg.singular_values(stack)[:, 0]
    bounds = ulamlab.maps._op_bounds(stack)
    finite = np.isfinite(bounds)
    slack = ulamlab.maps._bound_slack(dim)
    assert np.all(bounds[finite] >= sigma[finite] / (1.0 + slack)), bounds / sigma
    fine = ulamlab.maps._op_bounds(stack, 4, single=False)
    assert np.all(fine >= sigma / (1.0 + linalg.FROBENIUS_SLACK)), fine / sigma
    odd = np.concatenate([np.zeros_like(stack[:1]), stack])
    odd[-1, 0, -1] = bad
    # a NaN entry leaves its matrix unscaled, so at 2^500 its products overflow
    with np.errstate(invalid="ignore", over="ignore"):
        for got in (ulamlab.maps._op_bounds(odd), ulamlab.maps._op_bounds(odd, 4, single=False)):
            assert got[0] == 0.0 and np.isnan(got[-1]), got


def test_first_nan_wins_when_a_later_nan_has_the_top_bound(monkeypatch):
    # An inf entry gives a matrix NaN singular values and a NaN bound, which
    # would make the first such matrix the top.  Bounds that rank a later
    # one first must still give the first NaN, found among the other
    # candidates and compared with the top put back in its place.
    stack = make_stack("random", 24, 8, seed=6)
    stack[5, 0, 0] = stack[17, 2, 1] = np.inf
    first_pass = ulamlab.maps._op_bounds

    def ranked(mats, squarings=2, single=None):
        bounds = first_pass(mats, squarings, single)
        if squarings == 2 and len(mats) == len(stack):
            bounds[5], bounds[17] = 1.0, np.inf
        return bounds

    monkeypatch.setattr(ulamlab.maps, "_op_bounds", ranked)
    assert np.flatnonzero(np.isnan(linalg.singular_values(stack)[:, 0])).tolist() == [5, 17]
    value, w = ulamlab.maps._op_argmax(len(stack), 8, stack.__getitem__)
    assert w == 5 and np.isnan(value)


def test_single_candidate_is_decomposed_once(monkeypatch):
    stack = make_stack("random", 24, 8, seed=7)
    stack[9] *= 10.0
    calls = []
    decompose = linalg.singular_values

    def counted(a):
        calls.append(len(a))
        return decompose(a)

    monkeypatch.setattr(linalg, "singular_values", counted)
    value, w = ulamlab.maps._op_argmax(len(stack), 8, stack.__getitem__)
    assert calls == [1]
    assert (value, w) == (decompose(stack[9:10])[0, 0], 9)


def test_pair_indices_are_built_per_block():
    # A finite group's (x, y, xy) come from the flat pair index of each block:
    # the scan holds the bounds, one byte per pair for the candidate mask and,
    # per kernel thread, one bound block's working set of at most 80 bytes an
    # entry, never three n^2 index arrays (6 MiB here).
    rng = np.random.default_rng(0)
    g = cyclic(512)
    phi = GroupMap(g, 1, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, g.order))[:, None, None])
    pairs = g.order**2
    for budget in (1, 2):
        with ulamlab.executor._kernel_threads(budget):
            expected = mult_defect(phi)
            tracemalloc.start()
            try:
                assert mult_defect(phi) == expected
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        limit = 9 * pairs + budget * 80 * ulamlab.maps._BOUND_BLOCK
        assert peak < limit, (budget, peak, limit)
    x, y = expected[1]
    v = phi.values
    assert abs(v[x] @ v[y] - v[g.mul[x, y]])[0, 0] == expected[0]


def test_one_block_stack_is_taken_once():
    # At most _BOUND_BLOCK entries: one take, bounded, filtered and decomposed
    # from one array, at any budget; above it, the takes of every bound block,
    # the top, the fine pass and the survivors: 3 + 1 + 3 + 2 for 63 tied
    # candidates, 3 + 1 for none.
    def counted(stack, calls):
        def take(at):
            calls.append(at)
            return stack[at]

        return take

    cases = [("spectra", 40, 8, None), ("unitary_multiples", 40, 8, None)]
    cases += [("unitary_multiples", 64, 24, 9), ("spectra", 64, 24, 7), ("random", 64, 24, 4)]
    for kind, count, dim, takes in cases:
        stack = make_stack(kind, count, dim, seed=2)
        for budget in (1, 2) if takes is None else (1,):
            calls = []
            with kernel_threads(budget, min_split=ulamlab.executor._MIN_SPLIT):
                got = ulamlab.maps._op_argmax(count, dim, counted(stack, calls))
            assert got == op_reference(stack), (kind, count, dim)
            assert len(calls) == (takes or 1), (kind, count, dim, budget)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rank_one", "tied", "flat", "near_unitary"]),
    dim=st.sampled_from([1, 2, 3, 24, 257]),
    count=st.integers(1, 3),
    scale=st.sampled_from([2.0**-500, 1.0, 2.0**500]),
    seed=st.integers(0, 2**16),
)
def test_unit_bounds_bracket_every_computed_side(kind, dim, count, scale, seed):
    values = spectral_stack(seed, count, dim, kind, scale)
    lower, upper = ulamlab.maps._unit_bounds(dim, linalg.singular_values(values))
    sides = ulamlab.maps._unit_sides(GroupMap(cyclic(count), dim, values), slice(None))
    norms = linalg.singular_values(sides)[..., 0]
    assert np.all(lower[:, None] <= norms), (lower, norms)
    assert np.all(norms <= upper[:, None]), (norms, upper)


LIMIT = 1.0 - 1e-9  # the snap refuses a unit defect from here


def snap_reference(phi):
    """The snap decided by the full unit-defect scan, then ``linalg.polar``:
    the repaired values and the defect, or the refusal's class and message."""
    delta = unit_defect(phi)[0]
    if delta >= LIMIT:
        return NotRepairableError, f"unit defect {delta:.6g} is not strictly below 1"
    try:
        return linalg.polar(phi.values)[0], delta
    except SingularInputError as err:
        return SingularInputError, str(err)


def assert_snap_equals_reference(phi, sides):
    """``sides`` collects the calls of ``maps._unit_sides``."""
    expected = snap_reference(phi)
    for measure in (True, False):
        sides.clear()
        try:
            psi, delta = _unitary_part(phi, measure)
        except (NotRepairableError, SingularInputError) as err:
            assert (type(err), str(err)) == expected, measure
            continue
        values, exact = expected
        assert np.array_equal(psi.values, values), measure
        if measure:
            assert same_float(delta, exact)
        else:  # an upper bound; the exact scan runs only near the limit
            assert exact <= delta < LIMIT
            assert not sides or (delta == exact and exact >= 0.5)


def scalar_values(c, dim):
    """cyclic:2 values 1 and ``diag(c, 1, ...)``: unit defect ``|1 - |c|^2|``."""
    values = np.stack([np.eye(dim, dtype=complex)] * 2)
    values[1, 0, 0] = c
    return values


def test_snap_decides_its_unit_defect_from_its_singular_values(monkeypatch):
    # Unit defects a few ulps either side of the limit, from below (|c|^2
    # near 1e-9) and above (near 2 - 1e-9); smallest singular values around
    # SIGMA_MIN_TOL, which the unit-defect refusal always precedes; and the
    # stacks of the operator-norm tests at every scale.
    near = []
    for dim in (1, 2):
        for k in range(-4, 5):
            for square in (1e-9 + k * 2.0**-53, 2.0 - 1e-9 + k * 2.0**-52):
                for phase in (1.0, 1j):
                    near.append(GroupMap(cyclic(2), dim, scalar_values(phase * np.sqrt(square), dim)))
    deltas = [unit_defect(phi)[0] for phi in near]
    assert sum(d < LIMIT for d in deltas) >= 8 and sum(d > LIMIT for d in deltas) >= 8, deltas
    singular = [
        GroupMap(cyclic(2), dim, scalar_values(s * linalg.SIGMA_MIN_TOL, dim))
        for dim in (1, 2)
        for s in (0.5, 1.0, 2.0)
    ]
    stacks = []
    for g in (cyclic(2), dihedral(4), cyclic(16)):
        for dim in (1, 3, 5):
            for values in MAP_VALUES.values():
                stacks += [GroupMap(g, dim, values(g, dim, dim) * scale) for scale in MAP_SCALES]
        phi = perturb_unitary(regular_rep(g), 0.05, seed=1)
        stacks += [phi, average_pd(phi)]
    sides = []
    form = ulamlab.maps._unit_sides
    monkeypatch.setattr(ulamlab.maps, "_unit_sides", lambda *args: sides.append(1) or form(*args))
    for phi in near + singular + stacks:
        assert_snap_equals_reference(phi, sides)


@settings(max_examples=60, deadline=None)
@given(
    g=st.sampled_from(FILTER_GROUPS),
    dim=st.integers(1, 6),
    kind=st.sampled_from(sorted(MAP_VALUES) + ["perturbed", "averaged"]),
    scale=st.sampled_from(MAP_SCALES),
    seed=st.integers(0, 2**16),
    budget=st.sampled_from((1, 2)),
)
def test_defect_report_equals_separate_scans(g, dim, kind, scale, seed, budget):
    if kind in ("perturbed", "averaged"):  # unit defects of rounding, and of a round
        phi = perturb_unitary(regular_rep(g), 0.05, seed)
        phi = average_pd(phi) if kind == "averaged" else phi
        phi = GroupMap(g, phi.dim, phi.values * scale)
    else:
        phi = GroupMap(g, dim, MAP_VALUES[kind](g, dim, seed) * scale)
    with kernel_threads(budget):
        report = defect_report(phi)
    delta, element = unit_defect(phi)
    assert (report.epsilon, report.witness_pair) == mult_defect(phi)
    assert same_float(report.delta, delta) and report.witness_element == element
    assert same_float(report.iso_delta, iso_defect(phi))
    assert same_float(report.sup_norm, sup_norm(phi))
