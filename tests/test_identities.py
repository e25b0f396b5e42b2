"""Pinned outputs of every path that evaluates the eight defining identities.

The axiom checker, the deformation equations, the degree-2 operators, the
obstruction pair and the second-order probe all evaluate the same eight
identities.  Each test below digests one of those outputs (SHA-256 of
canonical JSON) over a fixed set of inputs and compares it with a digest
recorded from a reference implementation, so a rewrite of how the
identities are evaluated must reproduce pass flags, first failing tuples
and every matrix and cochain entry exactly.

Inputs: the bundled algebras, the seeded random corpus of the acceptance
suite, corrupted copies of both, and seeded deformations that include
failing ones (random non-cocycle coefficients) so that failure tuples are
pinned as well as passes.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hlya.algebra import algebra_from_sparse, check_axioms, make_algebra
from hlya.coboundary import d2, delta2
from hlya.cochain import Cochain
from hlya.deformation import (
    Deformation,
    apply_gauge,
    bracket_cochain,
    first_order_deformation,
    null_deformation,
    obstruction_pair,
    random_gauge,
    second_order_probe,
    solve_second_order,
    ternary_cochain,
    verify_deformation,
)
from hlya.exactlin import Matrix
from hlya.samples import random_verified_algebras

from fraction_reference import dense
from draws import random_cochain, random_cocycle

RANDOM_ALGEBRA_SEED = 12345
RANDOM_ALGEBRA_COUNT = 20

EXPECTED = {
    "check_axioms": (
        "402413f11662b106facb0e8e78f5b140"
        "d996259d7cb8a0c8aee0d83f72ccd6fc"
    ),
    "verify_deformation": (
        "a4dda78af3f1803a225bdac2d9693dd8"
        "0f7a27bdb7be3d6413fcddd30e736ea4"
    ),
    "delta2_d2": (
        "946c786fb9a7e49a03601c2af2a813ea"
        "2dc87c19b33b26935b41e01daa94725a"
    ),
    "obstruction_pair": (
        "00190e775919eab25d93372346b5b560"
        "9a788f82e1c71627c3852f990434f03e"
    ),
    "second_order_probe": (
        "da99f3495f071016bd5ec5f7d31aaa1a"
        "6f01f4de9ddfde9d2e8a8ab1881e8d49"
    ),
}


def _canon(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Matrix):
        return [_canon(row) for row in x.data]
    if isinstance(x, Cochain):
        return [x.arity, x.dim, sorted([list(k), _canon(v)] for k, v in x.table.items())]
    if isinstance(x, dict):
        return sorted([_canon(k), _canon(v)] for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def _digest(obj) -> str:
    text = json.dumps(_canon(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return random_verified_algebras(RANDOM_ALGEBRA_SEED, RANDOM_ALGEBRA_COUNT)


def _corrupted(a):
    """Three broken copies of a: ternary, binary and twist entries shifted."""
    d = a.dim
    last = [int(k == d - 1) for k in range(d)]
    out = []
    for kind in ("ternary", "binary", "alpha"):
        binary, ternary, alpha = dense(a)
        b = [[list(v) for v in row] for row in binary]
        t = [[[list(v) for v in col] for col in row] for row in ternary]
        alpha = [list(row) for row in alpha]
        if kind == "ternary":
            t[0][1][0] = [x + s for x, s in zip(t[0][1][0], last)]
            t[1][0][0] = [x - s for x, s in zip(t[1][0][0], last)]
        elif kind == "binary":
            b[0][1] = [x + s for x, s in zip(b[0][1], last)]
            b[1][0] = [x - s for x, s in zip(b[1][0], last)]
        else:
            alpha[d - 1][0] += 1
        out.append(make_algebra(d, b, t, alpha, name=f"{a.name}_{kind}"))
    return out


def _leibniz_breaker():
    # {e1 e2 e1} = e2 on top of the aff(1) bracket
    return algebra_from_sparse(2, {(0, 1): (1, 0)}, {(0, 1, 0): (0, 1)}, [[1, 0], [0, 1]])


def _axiom_obj(report):
    return [report.passed, report.counterexamples]


def _deformation_obj(d):
    report = verify_deformation(d)
    return [report.order, report.failures]


def test_check_axioms_reports_pinned(bundled, corpus):
    out = []
    for a in bundled + corpus:
        out.append(_axiom_obj(check_axioms(a)))
        out.extend(_axiom_obj(check_axioms(bad)) for bad in _corrupted(a))
    out.append(_axiom_obj(check_axioms(_leibniz_breaker())))
    assert _digest(out) == EXPECTED["check_axioms"]


def test_verify_deformation_reports_pinned(bundled, corpus):
    rng = random.Random(1201)
    out = []
    for a in bundled:
        null = null_deformation(a, 2)
        out.append(_deformation_obj(null))
        out.append(_deformation_obj(apply_gauge(null, random_gauge(a, 2, rng))))
        f1, g1 = random_cocycle(a, rng)
        out.append(_deformation_obj(first_order_deformation(a, f1, g1, order=2)))
        # random coefficients: fails from order 1 on, pins failure tuples
        f = [bracket_cochain(a)] + [random_cochain(a, 2, rng) for _ in range(2)]
        g = [ternary_cochain(a)] + [random_cochain(a, 3, rng) for _ in range(2)]
        out.append(_deformation_obj(Deformation(a, 2, f, g)))
    e1 = bundled[1]
    out.append(_deformation_obj(apply_gauge(null_deformation(e1, 3), random_gauge(e1, 3, rng))))
    for a in corpus:
        f1, g1 = random_cochain(a, 2, rng), random_cochain(a, 3, rng)
        out.append(_deformation_obj(first_order_deformation(a, f1, g1)))
    for a in bundled:
        out.extend(_deformation_obj(null_deformation(bad, 1)) for bad in _corrupted(a))
    out.append(_deformation_obj(null_deformation(_leibniz_breaker(), 0)))
    assert _digest(out) == EXPECTED["verify_deformation"]


def test_degree_two_operators_pinned(bundled, corpus):
    out = [[delta2(a).matrix, d2(a).matrix] for a in bundled + corpus]
    assert _digest(out) == EXPECTED["delta2_d2"]


def _cocycle_draws(bundled, corpus):
    rng = random.Random(1202)
    draws = []
    for a in bundled:
        draws.extend((a, *random_cocycle(a, rng)) for _ in range(6))
    draws.extend((a, *random_cocycle(a, rng)) for a in corpus)
    return draws


def test_obstruction_pairs_pinned(bundled, corpus):
    out = []
    for a, f1, g1 in _cocycle_draws(bundled, corpus):
        pair = obstruction_pair(a, f1, g1)
        out.append([pair.first, pair.second, pair.in_z4z5])
    assert _digest(out) == EXPECTED["obstruction_pair"]


def test_second_order_probes_pinned(bundled, corpus):
    out = []
    for a, f1, g1 in _cocycle_draws(bundled, corpus):
        solved = solve_second_order(a, f1, g1)
        if solved is None:
            out.append(None)
            continue
        out.append([solved, second_order_probe(a, f1, g1, *solved).failures])
    assert _digest(out) == EXPECTED["second_order_probe"]
