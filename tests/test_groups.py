import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulamlab.maps
from ulamlab.groups import (
    FiniteGroup,
    FreeBall,
    NotAGroupError,
    UnsupportedDomainError,
    cyclic,
    dihedral,
    direct_product,
    free_ball,
    from_table,
    n_elements,
    parse_group_spec,
    symmetric,
)

from oracles import reduce_word, reversed_labels

# Latin square with identity that is not associative (a loop, not a group).
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def check_group_axioms(g: FiniteGroup):
    n = g.order
    e = g.identity
    mul = g.mul
    assert mul.shape == (n, n)
    assert np.array_equal(mul[e], np.arange(n))
    assert np.array_equal(mul[:, e], np.arange(n))
    assert np.array_equal(mul[g.inv, np.arange(n)], np.full(n, e))
    assert np.array_equal(mul[np.arange(n), g.inv], np.full(n, e))
    # associativity on the full cube: (a*b)*c against a*(b*c)
    left = mul[mul, :]
    right = mul[:, mul]
    assert np.array_equal(left, right)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_cyclic_axioms(n):
    g = cyclic(n)
    check_group_axioms(g)
    assert g.order == n
    assert g.mul[1 % n, (n - 1) % n] == 0


def test_cyclic_table_is_its_only_square_array():
    tracemalloc.start()
    try:
        g = cyclic(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.mul.nbytes == 2048 * 2048 * 8
    assert peak <= g.mul.nbytes + (1 << 20)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_dihedral_axioms(n):
    g = dihedral(n)
    check_group_axioms(g)
    assert g.order == 2 * n
    # every reflection squares to the identity
    for r in range(n, 2 * n):
        assert g.mul[r, r] == 0


def test_dihedral_is_nonabelian_from_three():
    g = dihedral(3)
    assert g.mul[1, 3] != g.mul[3, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_axioms(n):
    g = symmetric(n)
    check_group_axioms(g)
    assert g.order == int(np.prod(range(1, n + 1)))


def test_symmetric_three_matches_known_composition():
    g = symmetric(3)
    # elements are permutations in lexicographic order
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            composed = tuple(pa[pb[k]] for k in range(3))
            assert g.mul[a, b] == idx[composed]


def test_direct_product_axioms_and_order():
    g = direct_product(cyclic(2), cyclic(3))
    check_group_axioms(g)
    assert g.order == 6
    klein = direct_product(cyclic(2), cyclic(2))
    assert all(klein.mul[a, a] == 0 for a in range(4))


@pytest.mark.parametrize(
    "g",
    [cyclic(1), cyclic(12), dihedral(4), symmetric(4), direct_product(cyclic(2), dihedral(3)),
     reversed_labels(dihedral(4))],
    ids=lambda g: g.label,
)
def test_swapped_quotient_is_the_inverse_quotient(g):
    # x_j^-1 x_i = (x_i^-1 x_j)^-1, so block (i, j) of a Gram's adjoint is a
    # function of x_i^-1 x_j alone; pd_min_eig builds G* on this identity.
    check_group_axioms(g)
    a = g.mul[g.inv]
    assert np.array_equal(a.T, g.inv[a])


def test_reversed_labels_move_the_identity():
    g = reversed_labels(dihedral(4))
    assert g.identity == 7


def test_caps_reject_oversized_groups():
    with pytest.raises(ValueError):
        cyclic(5000)
    with pytest.raises(ValueError):
        symmetric(7)
    with pytest.raises(ValueError):
        direct_product(cyclic(100), cyclic(100))


def test_from_table_accepts_cyclic_table():
    n = 5
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    g = from_table(table, label="z5")
    check_group_axioms(g)
    assert g.label == "z5"


def test_from_table_rejects_nonassociative_loop():
    with pytest.raises(NotAGroupError, match="associat"):
        from_table(NONASSOCIATIVE_LOOP)


def test_from_table_rejects_broken_latin_row():
    with pytest.raises(NotAGroupError, match="row"):
        from_table([[0, 0], [1, 0]])


def test_from_table_rejects_shifted_identity():
    # subtraction table is a latin square but 0 is not an identity
    n = 4
    table = [[(a - b) % n for b in range(n)] for a in range(n)]
    with pytest.raises(NotAGroupError, match="identity"):
        from_table(table)


def test_from_table_rejects_out_of_range_entries():
    with pytest.raises(NotAGroupError, match="indices"):
        from_table([[0, 1], [1, 2]])


def test_from_table_rejects_entries_that_are_not_integers():
    # cast to integers, the first table would be cyclic:2's and the second
    # the identity's of order 2
    for mul in ([[0, 1.7], [1.2, 0]], [[False, True], [True, False]]):
        with pytest.raises(NotAGroupError, match="'mul' entries must be integers"):
            from_table(mul)
    assert from_table(np.array([[0, 1], [1, 0]], dtype=np.int32)).order == 2


def test_reduce_word_cancels_adjacent_inverses():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([1, 2, -2, -1]) == ()
    assert reduce_word([1, 2, -2, 1]) == (1, 1)
    assert reduce_word([2, 1, -1, -2, 1]) == (1,)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
@settings(max_examples=100, deadline=None)
def test_reduce_word_is_idempotent_and_reduced(word):
    reduced = reduce_word(word)
    assert reduce_word(reduced) == reduced
    assert all(a + b != 0 for a, b in zip(reduced, reduced[1:]))


@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_reduce_word_respects_concatenation(u, v):
    direct = reduce_word(list(u) + list(v))
    staged = reduce_word(list(reduce_word(u)) + list(reduce_word(v)))
    assert direct == staged


def test_free_ball_word_counts():
    # free rank-2 ball: 1 + 4 * 3^(k-1) words at distance k
    ball = free_ball(2, 2)
    assert ball.rank == 2 and ball.radius == 2
    assert n_elements(ball) == 1 + 4 + 12
    assert ball.words[0] == ()
    lengths = [len(w) for w in ball.words]
    assert lengths == sorted(lengths)


def ball_products(ball) -> dict[tuple[int, int], int]:
    """``ball.pairs`` as a dict ``(i, j) -> k``."""
    return {(i, j): k for i, j, k in zip(*(column.tolist() for column in ball.pairs))}


def test_free_ball_identity_and_inverses():
    ball = free_ball(2, 3)
    assert ball.identity == 0
    index = {w: i for i, w in enumerate(ball.words)}
    products = ball_products(ball)
    for i, w in enumerate(ball.words):
        inverse = index[tuple(-a for a in reversed(w))]
        assert products[(i, inverse)] == ball.identity


def test_free_ball_pairs_only_inside_radius():
    ball = free_ball(2, 2)
    idx = {w: i for i, w in enumerate(ball.words)}
    pairs = ball_products(ball)
    for (i, j), k in pairs.items():
        product = reduce_word(ball.words[i] + ball.words[j])
        assert len(product) <= ball.radius
        assert k == idx[product]
    # a pair whose reduced product leaves the ball must be absent
    far = idx[(1, 1)]
    assert (far, far) not in pairs


@pytest.mark.parametrize(
    "rank,radius", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3)]
)
def test_free_ball_pairs_match_word_reduction(rank, radius):
    """The step-table products against ``reduce_word`` on every word pair."""
    ball = free_ball(rank, radius)
    index = {w: i for i, w in enumerate(ball.words)}
    expected = [
        (i, j, index[product])
        for i, wi in enumerate(ball.words)
        for j, wj in enumerate(ball.words)
        if (product := reduce_word(wi + wj)) in index
    ]
    for column, values in zip(ball.pairs, zip(*expected)):
        assert column.dtype == np.int64
        assert not column.flags.writeable
        assert np.array_equal(column, values)
    assert ulamlab.maps._pair_arrays(ball) is ball.pairs  # built once, not per scan


def test_free_ball_fields_and_largest_rank_three_ball():
    assert [f.name for f in dataclasses.fields(FreeBall)] == ["rank", "radius", "words", "pairs"]
    ball = free_ball(3, 5)
    assert len(ball.words) == 4687
    assert all(len(column) == 461719 for column in ball.pairs)


def test_free_ball_folds_in_row_blocks(monkeypatch):
    whole = free_ball(2, 4)
    assert len(whole.words) == 161  # 26 blocks of 6 rows, then one of 5
    monkeypatch.setattr("ulamlab.groups._BALL_BLOCK", 6 * len(whole.words) + 3)
    blocked = free_ball(2, 4)
    for a, b in zip(whole.pairs, blocked.pairs):
        assert np.array_equal(a, b)


def test_free_ball_rejects_unsupported_rank():
    with pytest.raises(ValueError):
        free_ball(1, 2)
    with pytest.raises(ValueError):
        free_ball(4, 2)


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic:6", 6),
        ("dihedral:4", 8),
        ("symmetric:3", 6),
        ("product:cyclic:2,cyclic:3", 6),
        ("product:cyclic:2,cyclic:2,cyclic:2", 8),
    ],
)
def test_parse_group_spec_finite(spec, order):
    g = parse_group_spec(spec)
    assert isinstance(g, FiniteGroup)
    assert g.order == order
    check_group_axioms(g)


def test_parse_group_spec_labels_reparse():
    g = parse_group_spec("product:cyclic:2,dihedral:3")
    h = parse_group_spec(g.label)
    assert h.order == g.order
    assert np.array_equal(h.mul, g.mul)


def test_parse_group_spec_free_ball():
    ball = parse_group_spec("freeball:2:3")
    assert isinstance(ball, FreeBall)
    assert ball.label == "freeball:2:3"


def test_parse_group_spec_table_file(tmp_path):
    n = 3
    path = tmp_path / "z3.json"
    path.write_text(
        json.dumps({"label": "z3", "mul": [[(a + b) % n for b in range(n)] for a in range(n)]})
    )
    g = parse_group_spec(f"table:{path}")
    assert g.order == 3
    check_group_axioms(g)


def test_parse_group_spec_rejects_a_label_that_is_not_a_string(tmp_path):
    # a number would reach the report as one, and a product of it fails on its label
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"label": 5, "mul": [[0, 1], [1, 0]]}))
    for spec in (f"table:{path}", f"product:table:{path},cyclic:2"):
        with pytest.raises(ValueError, match="'label' must be a string"):
            parse_group_spec(spec)


def test_parse_group_spec_rejects_unknown():
    for bad in ["", "cyclic", "cyclic:x", "wat:3", "freeball:2", "symmetric:-1"]:
        with pytest.raises((ValueError, NotAGroupError)):
            parse_group_spec(bad)


def test_unsupported_domain_error_is_value_error():
    assert issubclass(UnsupportedDomainError, ValueError)
