"""Cohomology dimensions, membership tests, and basis independence."""

import hashlib
import os
import random

import pytest

from hlya import serialize
from hlya.cli import EXIT_OK, main
from hlya.algebra import from_lie_algebra, from_lya_standard, make_algebra
from hlya.coboundary import apply_operator, d2, delta2, delta3
from hlya.cochain import Cochain, build_cochain_space, cochain_to_matrix, matrix_to_cochain
from hlya.cohomology import cohomology_report, is_coboundary_2, is_cocycle_2
from hlya.derivations import derivation_space
from hlya.errors import PreconditionError
from hlya.exactlin import Matrix, rat
from hlya.samples import random_verified_algebra

from fraction_reference import dense


def test_abelian_dims_by_hand(e0):
    # every operator vanishes on the abelian algebra, so cocycles fill the
    # whole cochain spaces (C2 x C3 has dim 2 + 4) and coboundaries vanish
    dims = cohomology_report(e0).dims()
    assert dims == {
        "h1": 4,
        "z2z3": 6,
        "b2b3": 0,
        "h2h3": 6,
        "z4z5": 6,
        "b4b5": 0,
        "h4h5": 6,
    }


def test_bundled_dimension_table(e1, e2, e3):
    # regression goldens for the non-abelian bundle
    expected = {
        "aff1": {"h1": 2, "z2z3": 3, "b2b3": 2, "h2h3": 1, "z4z5": 4, "b4b5": 3, "h4h5": 1},
        "sl2": {"h1": 3, "z2z3": 7, "b2b3": 6, "h2h3": 1, "z4z5": 29, "b4b5": 29, "h4h5": 0},
        "heisenberg_twisted": {"h1": 3, "z2z3": 8, "b2b3": 2, "h2h3": 6, "z4z5": 0, "b4b5": 0, "h4h5": 0},
    }
    for a in (e1, e2, e3):
        assert cohomology_report(a).dims() == expected[a.name], a.name


def test_gl2_golden_dimension_table():
    # the first dim-4 golden: gl2 = sl2 + a central element on (h, e, f, c)
    path = os.path.join(os.path.dirname(__file__), "..", "data", "e4_gl2.json")
    a = serialize.load_algebra(path)
    bracket = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, j, value in ((0, 1, [0, 2, 0, 0]), (0, 2, [0, 0, -2, 0]), (1, 2, [1, 0, 0, 0])):
        bracket[i][j] = value
        bracket[j][i] = [-x for x in value]
    assert a == from_lya_standard(bracket)
    report = cohomology_report(a)
    assert report.dims() == {
        "h1": 4, "z2z3": 13, "b2b3": 12, "h2h3": 1, "z4z5": 105, "b4b5": 105, "h4h5": 0,
    }
    assert delta3(a).matrix.matmul(delta2(a).matrix).is_zero()
    assert report.h1.dim == derivation_space(a, 0).dim


# SHA-256 of the standard output of `hlya <command> data/e4_gl2.json`
GL2_STDOUT_SHA256 = {
    ("cohomology",): "44c18853109fc4a09955370e234ab1f45946e0ced00089a9d98bb8f5d7aac617",
    ("dump-operator", "3"): "129d165f36f6e229379f3a1d6b85f4ea313d22158fae12785a8c038d7f3c624d",
}


@pytest.mark.parametrize("command", sorted(GL2_STDOUT_SHA256), ids=" ".join)
def test_gl2_cli_output_is_pinned(command, capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "data", "e4_gl2.json")
    assert main([command[0], path, *command[1:]]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GL2_STDOUT_SHA256[command]


def test_empty_degree_two_codomains():
    # Heisenberg [e1,e2] = e3 twisted by diag(2, 3, 6): C2 is 1-dimensional
    # and every higher cochain space is 0, so both blocks of [delta2; d2]
    # have no rows and Z2 x Z3 is all of C2 x C3
    z = [0, 0, 0]
    bracket = [[z, [0, 0, 1], z], [[0, 0, -1], z, z], [z, z, z]]
    a = from_lie_algebra(bracket, [[2, 0, 0], [0, 3, 0], [0, 0, 6]])
    assert [build_cochain_space(a, n).dim for n in range(1, 8)] == [3, 1, 0, 0, 0, 0, 0]
    dims = cohomology_report(a).dims()
    assert dims["z2z3"] == 1
    assert dims["h2h3"] == dims["z2z3"] - dims["b2b3"]
    assert dims["h4h5"] == dims["z4z5"] - dims["b4b5"]


def test_seeded_heisenberg_draws_with_empty_degree_two_codomains(tmp_path, capsys):
    # draws 69 and 117 of random.Random(0) are Heisenberg twists whose
    # cochain dimensions are (3, 1, 0, 0, 0, 0, 0), so both codomain blocks
    # of [delta2; d2] are 0-dimensional; the report and `hlya cohomology`
    # still read h = z - b at both levels and h1 = dim Der_0
    rng = random.Random(0)
    draws = [random_verified_algebra(rng) for _ in range(118)]
    for i in (69, 117):
        a = draws[i]
        assert a.name == "rand_d3_heisenberg"
        assert [build_cochain_space(a, n).dim for n in range(1, 8)] == [3, 1, 0, 0, 0, 0, 0]
        assert [s.dim for s in (*delta2(a).codomain, *d2(a).codomain)] == [0, 0, 0, 0]
        report = cohomology_report(a)
        dims = report.dims()
        assert dims == {"h1": 2, "z2z3": 1, "b2b3": 1, "h2h3": 0, "z4z5": 0, "b4b5": 0, "h4h5": 0}, i
        assert dims["h2h3"] == dims["z2z3"] - dims["b2b3"]
        assert dims["h4h5"] == dims["z4z5"] - dims["b4b5"]
        assert report.h1.dim == derivation_space(a, 0).dim
        path = tmp_path / f"draw_{i}.json"
        serialize.save(str(path), serialize.algebra_to_obj(a))
        assert main(["cohomology", str(path)]) == EXIT_OK
        assert "h2h3" in capsys.readouterr().out


def test_h1_equals_untwisted_derivations(bundled):
    # both directions, not just equal dimensions
    for a in bundled:
        report = cohomology_report(a)
        der0 = derivation_space(a, 0)
        assert report.h1.dim == der0.dim
        c1 = build_cochain_space(a, 1)
        for m in der0.matrices(a.dim):
            assert report.h1.contains(c1.coords(matrix_to_cochain(a, m)))
        for j in range(report.h1.dim):
            h = c1.from_coords(report.h1.basis.column(j))
            comp_i, comp_ii = apply_operator(a, "1", h)
            assert comp_i.is_zero() and comp_ii.is_zero()
            m = cochain_to_matrix(a, h)
            flat = [x for row in m.data for x in row]
            assert der0.basis.contains(flat)


def test_coboundary_witness_round_trip(e1):
    rng = random.Random(11)
    c1 = build_cochain_space(e1, 1)
    for _ in range(5):
        h = c1.from_coords([rat(rng.randint(-3, 3)) for _ in range(c1.dim)])
        pair = apply_operator(e1, "1", h)
        assert is_cocycle_2(e1, *pair)
        witness = is_coboundary_2(e1, pair)
        assert witness is not None
        assert apply_operator(e1, "1", witness) == pair


def test_nontrivial_class_has_no_witness(e0):
    # on the abelian algebra the image of the first operator is zero, so any
    # nonzero cocycle pair represents a nontrivial class
    c2 = build_cochain_space(e0, 2)
    f = c2.basis_cochains[0]
    g = build_cochain_space(e0, 3).basis_cochains[0]
    assert is_cocycle_2(e0, f, g)
    assert is_coboundary_2(e0, (f, g)) is None


def test_membership_tests_refuse_maps_that_are_no_cochains(e3):
    """On heisenberg_twisted, alpha = diag(1, 2, 2): f(e1, e2) = e1 breaks
    alpha-equivariance, and a value at a diagonal pair breaks alternation.
    Either pair is the caller's bad input, not a theorem violation."""
    z2, z3 = Cochain.zero(2, 3), Cochain.zero(3, 3)
    equivariance = Cochain(2, 3, {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0)})
    diagonal = Cochain(2, 3, {(0, 0): (1, 0, 0)})
    cases = [
        (equivariance, r"^map violates the alpha-equivariance condition at tuple \(1, 2\)$"),
        (diagonal, r"^nonzero value at diagonal-pair tuple \(1, 1\)$"),
    ]
    for f, message in cases:
        for call in (lambda: is_cocycle_2(e3, f, z3), lambda: is_coboundary_2(e3, (f, z3))):
            with pytest.raises(PreconditionError, match=message) as caught:
                call()
            assert type(caught.value) is PreconditionError


def test_cochain_matrix_round_trip(e2):
    m = Matrix([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    assert cochain_to_matrix(e2, matrix_to_cochain(e2, m)) == m


def _permute_basis(a, perm):
    d, (binary, ternary, alpha) = a.dim, dense(a)
    inv = [0] * d
    for i, p in enumerate(perm):
        inv[p] = i
    b = [
        [[binary[inv[i]][inv[j]][inv[k]] for k in range(d)] for j in range(d)]
        for i in range(d)
    ]
    t = [
        [
            [
                [ternary[inv[i]][inv[j]][inv[k]][inv[l]] for l in range(d)]
                for k in range(d)
            ]
            for j in range(d)
        ]
        for i in range(d)
    ]
    permuted = [[alpha[inv[i]][inv[j]] for j in range(d)] for i in range(d)]
    return make_algebra(d, b, t, permuted, name=a.name + "_perm")


def test_dims_invariant_under_basis_permutation(e1, e3):
    assert cohomology_report(e1).dims() == cohomology_report(_permute_basis(e1, [1, 0])).dims()
    assert (
        cohomology_report(e3).dims()
        == cohomology_report(_permute_basis(e3, [2, 0, 1])).dims()
    )
