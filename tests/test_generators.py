import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ulamlab import (
    GenSpec,
    PreconditionError,
    SizeLimitError,
    UnsupportedDomainError,
    build_map,
    compress_rep,
    conjugate_rep,
    cyclic,
    derive_seed,
    dihedral,
    direct_sum,
    free_ball,
    haar_unitary,
    iso_defect,
    mult_defect,
    parse_genspec,
    perturb_unitary,
    random_map,
    regular_rep,
    similarity_twist,
    sup_norm,
    symmetric,
    trivial_rep,
    unit_defect,
)
from ulamlab.generators import MAX_REGULAR_ORDER, build_grid, character_rep, perturb_grid


def test_derive_seed_is_stable_and_label_sensitive():
    a = derive_seed(7, "x")
    assert a == derive_seed(7, "x")
    assert a != derive_seed(8, "x")
    assert a != derive_seed(7, "y")
    assert 0 <= a < 2**64


def test_haar_unitary_is_unitary_and_deterministic():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    u = haar_unitary(4, rng1)
    assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    assert_allclose(u, haar_unitary(4, rng2), atol=0)


def test_regular_rep_permutes_basis_vectors():
    g = dihedral(3)
    rho = regular_rep(g)
    assert rho.dim == g.order
    for x in range(g.order):
        for y in range(g.order):
            e_y = np.zeros(g.order)
            e_y[y] = 1.0
            out = rho.values[x] @ e_y
            assert out[g.mul[x, y]] == 1.0
            assert out.sum() == 1.0
    eps, _ = mult_defect(rho)
    assert eps == 0.0


def test_regular_rep_values_are_read_only():
    rho = regular_rep(dihedral(3))
    with pytest.raises(ValueError, match="read-only"):
        rho.values[0, 0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        rho.values *= 2.0


def test_trivial_rep_on_both_domains():
    assert trivial_rep(cyclic(3)).dim == 1
    ball_map = trivial_rep(free_ball(2, 2))
    assert np.all(ball_map.values == 1.0)


def test_character_rep_phases():
    g = cyclic(4)
    chi = character_rep(g, 1)
    expected = np.exp(2j * np.pi * np.arange(4) / 4)
    assert_allclose(chi.values[:, 0, 0], expected, atol=1e-14)
    eps, _ = mult_defect(chi)
    assert eps <= 1e-15


def test_character_rep_needs_canonical_cyclic_table():
    with pytest.raises(ValueError):
        character_rep(dihedral(3), 1)


def test_direct_sum_blocks():
    g = cyclic(3)
    phi = direct_sum([character_rep(g, 0), character_rep(g, 1)])
    assert phi.dim == 2
    assert_allclose(phi.values[1], np.diag([1.0, np.exp(2j * np.pi / 3)]), atol=1e-14)
    eps, _ = mult_defect(phi)
    assert eps <= 1e-15


def test_oversized_direct_sum_is_refused_before_stacking(monkeypatch):
    # Three regular parts on cyclic:128 would stack into 128 * 384**2 entries
    # (302 MB); the third part built is over the limit, so no fourth is built.
    built = []

    def counting(g):
        built.append(g.order)
        return regular_rep(g)

    def no_stack(parts):
        raise AssertionError("the parts were stacked")

    monkeypatch.setattr("ulamlab.generators.regular_rep", counting)
    monkeypatch.setattr("ulamlab.generators.direct_sum", no_stack)
    spec = GenSpec("direct_sum", parts=(GenSpec("regular"),) * 4)
    with pytest.raises(SizeLimitError, match=r"MAX_REGULAR_ORDER\*\*3 = 16777216"):
        build_map(spec, cyclic(128))
    assert built == [128, 128, 128]
    assert 128 * 256**2 <= MAX_REGULAR_ORDER**3 < 128 * 384**2


def test_direct_sum_requires_shared_domain():
    with pytest.raises(ValueError):
        direct_sum([trivial_rep(cyclic(2)), trivial_rep(cyclic(3))])


def test_direct_sum_requires_the_same_table():
    # cyclic:6 and dihedral:3 are finite groups of the same order
    with pytest.raises(ValueError, match="share a domain"):
        direct_sum([regular_rep(cyclic(6)), regular_rep(dihedral(3))])
    phi = direct_sum([regular_rep(cyclic(6)), regular_rep(cyclic(6))])  # equal tables, two objects
    assert phi.dim == 12
    assert mult_defect(phi)[0] == 0.0


def test_conjugate_rep_is_still_a_rep():
    rho = regular_rep(cyclic(4))
    pi = conjugate_rep(rho, seed=3)
    eps, _ = mult_defect(pi)
    delta, _ = unit_defect(pi)
    assert eps <= 1e-12 and delta <= 1e-12
    assert not np.allclose(pi.values, rho.values)


class TestPerturbUnitary:
    def test_theta_zero_is_identity_operation(self):
        rho = regular_rep(cyclic(3))
        assert_allclose(perturb_unitary(rho, 0.0, seed=1).values, rho.values, atol=0)

    def test_output_is_unitary_with_bounded_defect(self):
        for theta in (0.01, 0.05, 0.2):
            phi = perturb_unitary(regular_rep(dihedral(3)), theta, seed=2)
            delta, _ = unit_defect(phi)
            eps, _ = mult_defect(phi)
            assert delta <= 1e-12
            assert eps <= 3 * theta + 1e-12

    def test_identity_element_is_untouched(self):
        g = cyclic(4)
        phi = perturb_unitary(regular_rep(g), 0.1, seed=5)
        assert_allclose(phi.values[g.identity], np.eye(4), atol=0)

    def test_deterministic_in_seed(self):
        rho = regular_rep(cyclic(3))
        a = perturb_unitary(rho, 0.05, seed=11)
        b = perturb_unitary(rho, 0.05, seed=11)
        c = perturb_unitary(rho, 0.05, seed=12)
        assert_allclose(a.values, b.values, atol=0)
        assert not np.allclose(a.values, c.values)

    def test_rejects_bad_theta_and_base(self):
        rho = regular_rep(cyclic(3))
        with pytest.raises(ValueError):
            perturb_unitary(rho, -0.1, seed=0)
        with pytest.raises(ValueError):
            perturb_unitary(rho, 1.5, seed=0)
        with pytest.raises(PreconditionError):
            perturb_unitary(random_map(cyclic(3), 2, seed=0), 0.1, seed=0)


class TestPerturbGrid:
    BASES = {
        "cyclic:2": regular_rep(cyclic(2)),
        "dihedral:4": regular_rep(dihedral(4)),
        "symmetric:4": regular_rep(symmetric(4)),
        "conjugated": conjugate_rep(regular_rep(dihedral(3)), seed=4),
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_grid_maps_equal_single_theta_maps(self, name, monkeypatch):
        pi = self.BASES[name]
        for block in (None, 3 * pi.dim**2):  # one block, or 3 values a block
            if block:
                monkeypatch.setattr("ulamlab.executor._BLOCK", block)
            at = perturb_grid(pi, seed=7)
            for theta in (0.01, 1.0, 0.0, 0.01):  # any order, a theta twice
                expected = perturb_unitary(pi, theta, seed=7)
                got = at(theta)
                assert np.array_equal(got.values, expected.values), (name, block, theta)
                assert got.label == expected.label

    def test_build_grid_equals_build_map_at_each_theta(self):
        spec = GenSpec("perturbed", base=GenSpec("conjugated", seed=3), seed=5)
        at = build_grid(spec, dihedral(3))
        for theta in (0.0, 0.01, 1.0):
            at_theta = GenSpec.from_dict({**spec.to_dict(), "theta": theta})
            expected = build_map(at_theta, dihedral(3))
            assert np.array_equal(at(theta).values, expected.values)

    def test_grid_checks_theta_before_its_base(self):
        at = perturb_grid(random_map(cyclic(3), 2, seed=0), seed=0)  # nothing checked yet
        with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\], got 1.5"):
            at(1.5)
        with pytest.raises(PreconditionError, match="perturbation base must be unitary-valued"):
            at(0.1)


class TestCompressRep:
    def test_contraction_and_adjoint_symmetry(self):
        g = symmetric(3)
        phi = compress_rep(regular_rep(g), sub_dim=3, seed=4)
        assert phi.dim == 3
        assert sup_norm(phi) <= 1.0 + 1e-12
        for x in range(g.order):
            assert_allclose(
                phi.values[g.inv[x]], phi.values[x].conj().T, atol=1e-12
            )

    def test_defect_equivalence_for_exact_isometries(self):
        # seeds drawing compression factor 1 give a unital positive map whose
        # unit and mult defects agree
        g = dihedral(3)
        found = 0
        for seed in range(8):
            phi = compress_rep(regular_rep(g), sub_dim=2, seed=seed)
            if abs(np.linalg.norm(phi.values[g.identity] - np.eye(2))) > 1e-12:
                continue
            found += 1
            eps, _ = mult_defect(phi)
            delta, _ = unit_defect(phi)
            assert eps == pytest.approx(delta, abs=1e-9)
        assert found >= 1

    def test_sub_dim_validation(self):
        rho = regular_rep(cyclic(3))
        with pytest.raises(ValueError):
            compress_rep(rho, sub_dim=0, seed=0)
        with pytest.raises(ValueError):
            compress_rep(rho, sub_dim=4, seed=0)


class TestSimilarityTwist:
    def test_twist_is_exact_similarity(self):
        rho = regular_rep(cyclic(4))
        psi, cond = similarity_twist(rho, bound=2.0, seed=1)
        assert 1.0 <= cond <= 2.0 + 1e-9
        eps, _ = mult_defect(psi)
        assert eps <= 1e-12
        assert iso_defect(psi) > 1e-3  # genuinely nonunitary

    def test_bound_one_is_no_twist_up_to_conjugation(self):
        rho = regular_rep(cyclic(3))
        psi, cond = similarity_twist(rho, bound=1.0, seed=2)
        assert cond == pytest.approx(1.0, abs=1e-12)
        delta, _ = unit_defect(psi)
        assert delta <= 1e-12

    def test_rejects_bound_below_one(self):
        with pytest.raises(ValueError):
            similarity_twist(regular_rep(cyclic(3)), bound=0.5, seed=0)


class TestRandomMap:
    def test_sup_is_exact(self):
        phi = random_map(dihedral(3), 3, sup=1.7, seed=6)
        assert sup_norm(phi) == pytest.approx(1.7, abs=1e-12)

    def test_zero_sup_gives_zero_map(self):
        phi = random_map(cyclic(3), 2, sup=0.0, seed=0)
        assert np.all(phi.values == 0)

    def test_deterministic_in_seed(self):
        a = random_map(cyclic(3), 2, seed=3)
        b = random_map(cyclic(3), 2, seed=3)
        assert_allclose(a.values, b.values, atol=0)

    def test_works_on_free_ball(self):
        phi = random_map(free_ball(2, 2), 2, seed=0)
        assert phi.values.shape[0] == 17

    def test_oversized_map_is_refused_before_drawing(self, monkeypatch):
        # 4096 values of dimension 65 are just over MAX_REGULAR_ORDER**3
        # entries, about 277 MiB of values and as much again for each draw.
        def no_draw(*args, **kwargs):
            raise AssertionError("values were drawn")

        monkeypatch.setattr("ulamlab.generators._rng", no_draw)
        g = cyclic(4096)
        with pytest.raises(SizeLimitError, match=r"MAX_REGULAR_ORDER\*\*3 = 16777216"):
            random_map(g, 65)
        assert MAX_REGULAR_ORDER**3 == 16_777_216 < g.order * 65**2


# Each recipe with its JSON echo: the kind, the group if set, and the fields
# the kind reads, nothing else.
GENSPEC_CASES = [
    (GenSpec("regular"), {"kind": "regular"}),
    (GenSpec("trivial"), {"kind": "trivial"}),
    (GenSpec("character", k=2), {"kind": "character", "k": 2}),
    (GenSpec("perturbed", theta=0.05, seed=3), {"kind": "perturbed", "theta": 0.05, "seed": 3}),
    (GenSpec("conjugated", seed=1), {"kind": "conjugated", "seed": 1}),
    (GenSpec("compressed", sub_dim=2, seed=2), {"kind": "compressed", "sub_dim": 2, "seed": 2}),
    (GenSpec("twisted", bound=1.5, seed=4), {"kind": "twisted", "bound": 1.5, "seed": 4}),
    (
        GenSpec("random_map", dim=3, sup=0.8, seed=5),
        {"kind": "random_map", "sup": 0.8, "dim": 3, "seed": 5},
    ),
    (
        GenSpec("direct_sum", parts=(GenSpec("character", k=0), GenSpec("character", k=1))),
        {
            "kind": "direct_sum",
            "parts": [{"kind": "character", "k": 0}, {"kind": "character", "k": 1}],
        },
    ),
    (
        GenSpec("perturbed", theta=0.02, seed=7, base=GenSpec("conjugated", seed=9)),
        {"kind": "perturbed", "base": {"kind": "conjugated", "seed": 9}, "theta": 0.02, "seed": 7},
    ),
    (GenSpec("regular", group="dihedral:3"), {"kind": "regular", "group": "dihedral:3"}),
]


@pytest.mark.parametrize("case", GENSPEC_CASES, ids=lambda case: case[0].kind)
def test_genspec_dict_round_trip(case):
    spec, echo = case
    data = spec.to_dict()
    assert data == echo
    back = GenSpec.from_dict(json.loads(json.dumps(data)))
    assert back == spec


def test_genspec_rejects_unknown_kind_and_fields():
    with pytest.raises(ValueError):
        GenSpec("wat")
    with pytest.raises(ValueError):
        GenSpec.from_dict({"kind": "regular", "bogus": 1})
    with pytest.raises(ValueError):
        GenSpec.from_dict({"theta": 0.1})
    with pytest.raises(ValueError, match="theta must be a number, got '0.1'"):
        GenSpec.from_dict({"kind": "perturbed", "theta": "0.1"})
    with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
        GenSpec.from_dict({"kind": "character", "k": 1.5})
    with pytest.raises(ValueError, match="group"):
        GenSpec.from_dict({"kind": "regular", "group": 5})
    # a field the kind does not read
    unread = [
        ({"kind": "trivial", "base": {"kind": "regular"}}, "base"),
        ({"kind": "regular", "theta": 0.5}, "theta"),
        ({"kind": "direct_sum", "parts": [{"kind": "trivial"}], "seed": 3}, "seed"),
    ]
    for data, field in unread:
        with pytest.raises(ValueError, match=f"does not read \\['{field}'\\]"):
            GenSpec.from_dict(data)
    for kind in (["regular"], {}, None):
        with pytest.raises(ValueError, match="unknown genspec kind"):
            GenSpec.from_dict({"kind": kind})
    # numpy scalars are numbers, and a float field takes an integer
    assert GenSpec("character", k=np.int64(2), theta=np.float64(0.1), bound=2).k == 2


def test_parse_genspec_inline_and_file(tmp_path):
    inline = parse_genspec('{"kind": "perturbed", "theta": 0.1, "seed": 2}')
    assert inline.kind == "perturbed"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "regular"}))
    assert parse_genspec(str(path)).kind == "regular"
    with pytest.raises(ValueError):
        parse_genspec("no-such-file.json")


def test_build_map_resolves_embedded_group():
    phi = build_map(GenSpec("regular", group="cyclic:5"))
    assert phi.dim == 5
    assert phi.domain.label == "cyclic:5"


def test_build_map_needs_some_group():
    with pytest.raises(ValueError):
        build_map(GenSpec("regular"))


def test_build_map_rejects_regular_on_free_ball():
    with pytest.raises(UnsupportedDomainError):
        build_map(GenSpec("regular"), free_ball(2, 2))


def test_build_map_default_base_is_regular():
    g = cyclic(3)
    phi = build_map(GenSpec("perturbed", theta=0.0, seed=0), g)
    assert_allclose(phi.values, regular_rep(g).values, atol=0)


def test_build_map_matches_direct_constructions():
    g = cyclic(4)
    via_spec = build_map(GenSpec("perturbed", theta=0.03, seed=8), g)
    direct = perturb_unitary(regular_rep(g), 0.03, seed=8)
    assert_allclose(via_spec.values, direct.values, atol=0)
