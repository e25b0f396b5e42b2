"""The integer contraction kernel and the slot-by-slot gauge action against
their Fraction predecessors.

The reference functions below are the evaluator that called each bracket
series coefficient as a function on sparse Fraction vectors, the explicit
delta1 and delta3 formulas on sparse Fraction vectors, and the gauge
action that summed psi_a f_b(phi_c x, phi_e y) over every composition of
the order, all on the shared Fraction evaluator of
``fraction_reference``.  The package evaluates the identities and the delta1/delta3
term data as integer table contractions and acts with a gauge one argument
slot at a time; both must give equal axiom reports, deformation reports,
degree-2 images, operator matrices and images, obstruction pairs, probe
reports and gauged deformations.

The inputs carry real denominators: the sl2 twist diag(1, 3/2, 2/3), an
sl2 twist whose alpha has denominators 7 and 11 and is not diagonal, the
Heisenberg algebra with alpha = diag(2, 3, 6), gl2, seeded gauges whose
entries include halves, and seeded deformations whose coefficients are not
cocycles, so that first failing tuples are compared as well as passes.
The delta1/delta3 comparisons add the seed-12345 random corpus.
"""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hlya import coboundary
from hlya.algebra import (
    IDENTITIES,
    FormTable,
    IntTable,
    brackets,
    check_axioms,
    contract,
    int_table,
    make_algebra,
)
from hlya.coboundary import _LEVELS, _assemble, apply_operator
from hlya.cochain import Cochain, build_cochain_space, cochain_to_matrix, identity_cochain
from hlya.deformation import (
    Deformation,
    _gauge,
    _single_step,
    apply_gauge,
    bracket_cochain,
    first_order_deformation,
    inverse_gauge,
    null_deformation,
    obstruction_pair,
    random_gauge,
    second_order_probe,
    solve_second_order,
    ternary_cochain,
    verify_deformation,
)
from hlya.samples import random_verified_algebras

from fraction_reference import ONE, FractionOps, dense, divided, eval_sv, inverse_series, svec_add
from tabulated import numerators, tabulate, to_dense
from draws import random_cocycle

# --- the Fraction references -------------------------------------------------

_MINUS = -ONE


def al(ops, k, sv):
    """alpha^k applied to a sparse vector."""
    if k == 0:
        return sv
    acc = {}
    cols = ops.A[k]
    for i, c in sv.items():
        svec_add(acc, cols[i], c)
    return acc


def _acc(*signed_terms):
    acc = {}
    for sign, sv in signed_terms:
        svec_add(acc, sv, sign)
    return acc


def _hat_args(base, k, i, replacement):
    """Drops slots 2k-1 and 2k (1-based) from ``base`` and substitutes
    ``replacement`` at 1-based slot ``i`` of the original numbering."""
    drop = {2 * k - 2, 2 * k - 1}
    return [replacement if m == i - 1 else base[m] for m in range(len(base)) if m not in drop]


def _double_sum(arity, k_range, fn):
    """sum_k sum_{i=2k+1}^{arity} (-1)^k fn(k, i)."""
    acc = {}
    for k in k_range:
        for i in range(2 * k + 1, arity + 1):
            svec_add(acc, fn(k, i), ONE if k % 2 == 0 else _MINUS)
    return acc


def _delta1_tables(a, h):
    ops = FractionOps(a)
    e = ops.e
    br, tr = ops.br, ops.tr

    def hv(sv):
        return eval_sv(h, [sv])

    def comp_I(idx):
        x, y = e[idx[0]], e[idx[1]]
        return _acc((ONE, br(x, hv(y))), (ONE, br(hv(x), y)), (_MINUS, hv(br(x, y))))

    def comp_II(idx):
        x, y, z = (e[i] for i in idx)
        return _acc(
            (ONE, tr(hv(x), y, z)),
            (ONE, tr(x, hv(y), z)),
            (ONE, tr(x, y, hv(z))),
            (_MINUS, hv(tr(x, y, z))),
        )

    return [comp_I, comp_II]


def _delta3_tables(a, f, g):
    ops = FractionOps(a)
    e = ops.e
    br, tr = ops.br, ops.tr
    fv = lambda args: eval_sv(f, args)
    gv = lambda args: eval_sv(g, args)

    def comp_I(idx):
        x = [e[i] for i in idx]
        a2 = [al(ops, 2, v) for v in x]
        a3 = [al(ops, 3, v) for v in x]

        def hat_term(k, i):
            triple = tr(x[2 * k - 2], x[2 * k - 1], x[i - 1])
            return fv(_hat_args(a2, k, i, triple))

        return _acc(
            (ONE, tr(a3[0], a3[1], fv([x[2], x[3], x[4], x[5]]))),
            (_MINUS, tr(a3[2], a3[3], fv([x[0], x[1], x[4], x[5]]))),
            (ONE, _double_sum(6, (1, 2), hat_term)),
            (_MINUS, gv([al(ops, 1, x[0]), al(ops, 1, x[1]), al(ops, 1, x[2]), al(ops, 1, x[3]), br(x[4], x[5])])),
            (ONE, br(al(ops, 4, x[4]), gv([x[0], x[1], x[2], x[3], x[5]]))),
            (ONE, br(gv([x[0], x[1], x[2], x[3], x[4]]), al(ops, 4, x[5]))),
        )

    def comp_II(idx):
        x = [e[i] for i in idx]
        a2 = [al(ops, 2, v) for v in x]
        a4 = [al(ops, 4, v) for v in x]

        def pair_term(k):
            rest = [x[m] for m in range(7) if m not in (2 * k - 2, 2 * k - 1)]
            return tr(a4[2 * k - 2], a4[2 * k - 1], gv(rest))

        def hat_term(k, i):
            triple = tr(x[2 * k - 2], x[2 * k - 1], x[i - 1])
            return gv(_hat_args(a2, k, i, triple))

        return _acc(
            (ONE, pair_term(1)),
            (_MINUS, pair_term(2)),
            (ONE, pair_term(3)),
            (ONE, _double_sum(7, (1, 2, 3), hat_term)),
            (ONE, tr(gv([x[0], x[1], x[2], x[3], x[4]]), a4[5], a4[6])),
            (_MINUS, tr(gv([x[0], x[1], x[2], x[3], x[5]]), a4[4], a4[6])),
        )

    return [comp_I, comp_II]


REFERENCE_FORMULAS = {"1": _delta1_tables, "3": _delta3_tables}


def reference_identity_values(ops, k, n, fs, gs):
    """The t^n coefficient of identity k; fs[i], gs[i] are callables or None."""
    series = {"f": fs, "g": gs, "alpha": (lambda x: al(ops, 1, x),)}
    A, e = ops.A, ops.e
    compiled = []
    for sign, outer, args in IDENTITIES[k][1]:
        outs = series[outer]
        plain = [arg for arg in args if not isinstance(arg[0], str)]
        pos = next((m for m, arg in enumerate(args) if isinstance(arg[0], str)), None)
        if pos is None:
            slots = None
            pairs = [(outs[n], None)] if n < len(outs) and outs[n] is not None else []
        else:
            slots = args[pos][1:]
            ins = series[args[pos][0]]
            pairs = [
                (outs[i], ins[n - i])
                for i in range(min(n + 1, len(outs)))
                if n - i < len(ins) and outs[i] is not None and ins[n - i] is not None
            ]
        if pairs:
            compiled.append((sign, plain, pos, slots, pairs))

    def value(idx):
        acc = {}
        for sign, plain, pos, slots, pairs in compiled:
            vals = [A[p][idx[s]] for p, s in plain]
            if pos is None:
                svec_add(acc, pairs[0][0](*vals), sign)
                continue
            inner_args = [e[idx[s]] for s in slots]
            for outer, inner in pairs:
                v = inner(*inner_args)
                if v:
                    svec_add(acc, outer(*vals[:pos], v, *vals[pos:]), sign)
        return acc

    return value


def _reference_series(ops, f_higher, g_higher):
    def term(c):
        return None if c.is_zero() else (lambda *args: eval_sv(c, args))

    return (ops.br, *map(term, f_higher)), (ops.tr, *map(term, g_higher))


def reference_first_failure(ops, k, n, fs, gs):
    value = reference_identity_values(ops, k, n, fs, gs)
    for idx in itertools.product(range(ops.a.dim), repeat=IDENTITIES[k][0]):
        if value(idx):
            return tuple(i + 1 for i in idx)
    return None


def reference_check_axioms(a):
    ops = FractionOps(a)
    return {k: reference_first_failure(ops, k, 0, (ops.br,), (ops.tr,)) for k in IDENTITIES}


def reference_verify_deformation(d):
    ops = FractionOps(d.base)
    fs, gs = _reference_series(ops, d.f_seq[1:], d.g_seq[1:])
    return {
        (eq, n): reference_first_failure(ops, eq, n, fs, gs)
        for n in range(d.order + 1)
        for eq in IDENTITIES
    }


def reference_degree_two(a, ids, f, g):
    ops = FractionOps(a)
    fs, gs = _reference_series(ops, (f,), (g,))
    return [
        tabulate(a, IDENTITIES[k][0], reference_identity_values(ops, k, 1, fs, gs))
        for k in ids
    ]


def reference_obstruction_tables(a, f1, g1):
    ops = FractionOps(a)
    fs, gs = _reference_series(ops, (f1,), (g1,))
    tables = []
    for k in (7, 8):
        value = reference_identity_values(ops, k, 2, fs, gs)
        tables.append(tabulate(a, IDENTITIES[k][0], lambda idx: {i: -x for i, x in value(idx).items()}))
    return tables


def reference_probe(a, f1, g1, f2, g2):
    ops = FractionOps(a)
    fs, gs = _reference_series(ops, (f1, f2), (g1, g2))
    return {eq: reference_first_failure(ops, eq, 2, fs, gs) for eq in (5, 6, 7, 8)}


def _cols(m):
    return [{i: x for i, x in enumerate(m.column(j)) if x} for j in range(m.cols)]


def _apply_cols(cols, sv):
    acc = {}
    for i, c in sv.items():
        svec_add(acc, cols[i], c)
    return acc


def reference_apply_gauge(d, p):
    """psi_a f_b(phi_c x, phi_e y) summed over every composition of n."""
    base, order, dim = d.base, d.order, d.base.dim
    phi = [_cols(cochain_to_matrix(base, h)) for h in p.phi]
    psi = [_cols(cochain_to_matrix(base, h)) for h in inverse_gauge(p).phi]
    e = FractionOps(base).e
    f_out, g_out = [], []
    for n in range(order + 1):
        for seq, arity, out in ((d.f_seq, 2, f_out), (d.g_seq, 3, g_out)):
            table = {}
            for idx in itertools.product(range(dim), repeat=arity):
                acc = {}
                for parts in itertools.product(range(n + 1), repeat=arity + 1):
                    b, *cs = parts
                    rest = n - sum(parts)
                    if rest < 0:
                        continue
                    inner = eval_sv(seq[b], [_apply_cols(phi[c], e[i]) for c, i in zip(cs, idx)])
                    svec_add(acc, _apply_cols(psi[rest], inner))
                if acc:
                    table[idx] = to_dense(acc, dim)
            out.append(Cochain(arity, dim, table))
    return Deformation(base, order, f_out, g_out)


# --- inputs ------------------------------------------------------------------


@pytest.fixture(scope="module")
def algebras(twisted_algebras):
    return twisted_algebras


def _order(a):
    # the references are slow: the full order-4 round trip on dimension 3
    return 4 if a.dim <= 3 else 2


def _random_cochain(a, arity, rng):
    space = build_cochain_space(a, arity)
    return space.from_coords([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(space.dim)])


def _random_deformation(a, order, rng):
    """Coefficients that are cochains but not cocycles: the equations fail."""
    f = [bracket_cochain(a)] + [_random_cochain(a, 2, rng) for _ in range(order)]
    g = [ternary_cochain(a)] + [_random_cochain(a, 3, rng) for _ in range(order)]
    return Deformation(a, order, f, g)


def _corrupted(a):
    """a with one ternary entry shifted: several axioms fail."""
    d, (binary, ternary, alpha) = a.dim, dense(a)
    t = [[[list(v) for v in col] for col in row] for row in ternary]
    t[0][1][0] = [x + int(k == d - 1) for k, x in enumerate(t[0][1][0])]
    t[1][0][0] = [x - int(k == d - 1) for k, x in enumerate(t[1][0][0])]
    return make_algebra(d, binary, t, alpha, name=a.name + "_corrupted")


# --- the differential tests ----------------------------------------------------


def test_check_axioms_matches_reference(algebras):
    for a in algebras + [_corrupted(a) for a in algebras]:
        assert check_axioms(a).counterexamples == {
            k: v for k, v in reference_check_axioms(a).items() if v is not None
        }, a.name


def test_apply_gauge_matches_reference(algebras, bundled):
    """On the twisted algebras and the untwisted bundle, a random gauge and
    every step gauge id - h t^r, r = 1..N, act as the reference does, and
    the inverse built by dividing by the series is the one the recursion
    psi_n = -sum phi_i psi_{n-i} builds."""
    rng = random.Random(4101)
    halves = 0
    for a in algebras + bundled:
        order = _order(a)
        gauge = random_gauge(a, order, rng)
        halves += any(x.denominator == 2 for h in gauge.phi for vec in h.table.values() for x in vec)
        identity = identity_cochain(a).ints
        steps = [_gauge(a, _single_step(identity, order, _random_cochain(a, 1, rng), r)) for r in range(1, order + 1)]
        for p in (gauge, *steps):
            cases = [_random_deformation(a, order, rng)]
            if p is gauge:
                cases.append(null_deformation(a, order))
            for d in cases:
                assert apply_gauge(d, p) == reference_apply_gauge(d, p), a.name
            matrices = [cochain_to_matrix(a, h).data for h in p.phi]
            assert [cochain_to_matrix(a, h).data for h in inverse_gauge(p).phi] == inverse_series(matrices), a.name
    assert halves == len(algebras) + len(bundled)


def test_verify_deformation_matches_reference(algebras):
    rng = random.Random(4102)
    failing = 0
    for a in algebras:
        order = _order(a)
        f1, g1 = random_cocycle(a, rng)
        cases = [
            apply_gauge(null_deformation(a, order), random_gauge(a, order, rng)),
            first_order_deformation(a, f1, g1, order=2),
            _random_deformation(a, 2, rng),
        ]
        for d in cases:
            failures = verify_deformation(d).failures
            assert failures == reference_verify_deformation(d), a.name
            failing += any(v is not None for v in failures.values())
    assert failing >= len(algebras)  # failure tuples were compared, not only passes


def test_degree_two_tables_match_reference(algebras):
    rng = random.Random(4103)
    for a in algebras:
        f, g = _random_cochain(a, 2, rng), _random_cochain(a, 3, rng)
        for level, ids in (("2", (7, 8)), ("d2", (5, 6))):
            formulas = _LEVELS[level][3](a, int_table(f.table), int_table(g.table))
            tables = [IntTable(formula.den, formula.join()).fractions(a.dim) for formula in formulas]
            assert tables == reference_degree_two(a, ids, f, g), (a.name, level)


def test_obstruction_pairs_and_probes_match_reference(algebras):
    rng = random.Random(4104)
    solved_draws = 0
    for a in algebras[:3]:  # gl2's delta3 costs seconds; its pairs are pinned by digest
        for _ in range(3):
            f1, g1 = random_cocycle(a, rng)
            pair = obstruction_pair(a, f1, g1)
            expected = [Cochain(n, a.dim, table) for n, table in zip((4, 5), reference_obstruction_tables(a, f1, g1))]
            assert all(build_cochain_space(a, c.arity).contains(c) for c in expected), a.name
            assert [pair.first, pair.second] == expected, a.name
            solved = solve_second_order(a, f1, g1)
            if solved is None:
                continue
            solved_draws += 1
            assert second_order_probe(a, f1, g1, *solved).failures == reference_probe(a, f1, g1, *solved)
    assert solved_draws


class LinearForm:
    """A linear form {unknown: coefficient} with the arithmetic the Fraction
    reference applies to its values: sums, products with scalars, zero
    tests.  It carries generic tables through the reference formulas."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {u: c for u, c in terms.items() if c}

    def __add__(self, other):
        if not isinstance(other, LinearForm):
            assert not other, "a linear form plus a nonzero constant"
            return self
        terms = dict(self.terms)
        for u, c in other.terms.items():
            terms[u] = terms.get(u, 0) + c
        return LinearForm(terms)

    __radd__ = __add__

    def __mul__(self, c):
        assert not isinstance(c, LinearForm), "a product of two linear forms"
        return LinearForm({u: x * c for u, x in self.terms.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)


def _cochain_of(n, d, t):
    """The cochain of an integer table's values; for a generic table, a
    stand-in with the cochain's arity and a table of linear forms, which
    is all the Fraction references read (a Cochain's values are rationals)."""
    if not isinstance(t, FormTable):
        return Cochain(n, d, t.fractions(d))
    table = {}
    for key, vec in t.entries.items():
        forms = [{} for _ in range(d)]
        for (k, u), c in vec.items():
            forms[k][u] = Fraction(c, t.den)
        table[key] = tuple(LinearForm(form) for form in forms)
    return SimpleNamespace(arity=n, dim=d, table=table)


def _on_tables(formula, arities, codomain):
    """The Fraction ``formula`` on the integer tables that _LEVELS formulas
    take, generic tables included, one block per codomain shape, its
    values read as integer numerators over one denominator, as a
    contraction's values are.  On concrete tables each block is read at
    every tuple.  On generic tables, whose values are read back as forms
    {(output index, unknown): coefficient}, it is read at the
    representative tuples of its codomain space alone, the tuples
    assembly probes."""

    def tables(a, *domain):
        fns = formula(a, *(_cochain_of(n, a.dim, t) for n, t in zip(arities, domain)))
        if not any(isinstance(t, FormTable) for t in domain):
            return [numerators(a.dim, n, fn) for (n, _), fn in zip(codomain, fns)]
        fns = [
            lambda idx, fn=fn: {(j, u): c for j, form in fn(idx).items() for u, c in form.terms.items()}
            for fn in fns
        ]
        return [
            numerators(a.dim, n, fn, build_cochain_space(a, n, pairs).rep_tuples)
            for (n, pairs), fn in zip(codomain, fns)
        ]

    return tables


def _reference(monkeypatch, level, fn, *args):
    """fn(*args) with the explicit Fraction formula of ``level`` in _LEVELS."""
    name, domain, codomain, _ = _LEVELS[level]
    formula = _on_tables(REFERENCE_FORMULAS[level], domain, codomain)
    with monkeypatch.context() as patch:
        patch.setitem(coboundary._LEVELS, level, (name, domain, codomain, formula))
        return fn(*args)


def _operator_inputs(algebras):
    """(algebra, levels whose matrices are compared): gl2's delta3 matrix
    costs seconds on either path, so gl2 is compared at level 1 and through
    delta3 images of seeded cochains."""
    return [(a, ("1",) if a.dim > 3 else ("1", "3")) for a in algebras] + [
        (a, ("1", "3")) for a in random_verified_algebras(12345, 20)
    ]


def test_delta1_delta3_matrices_match_reference(monkeypatch, algebras):
    for a, levels in _operator_inputs(algebras):
        for level in levels:
            expected = _reference(monkeypatch, level, _assemble, a, level).matrix
            assert _assemble(a, level).matrix == expected, (a.name, level)


def test_delta1_delta3_images_match_reference(monkeypatch, algebras):
    """Whole tabulations (``apply_operator``) where the reference's are
    cheap; at level 3 in dimension 3 and 4 (about a second each on the
    reference) the formula values on a seeded sample of tuples."""
    rng = random.Random(4105)
    nonzero = 0
    for a, _ in _operator_inputs(algebras):
        for level, arities in (("1", (1,)), ("3", (4, 5))):
            cochains = [_random_cochain(a, n, rng) for n in arities]
            if level == "1" or a.dim == 2:
                images = apply_operator(a, level, *cochains)
                expected = _reference(monkeypatch, level, apply_operator, a, level, *cochains)
                assert images == expected, (a.name, level)
                nonzero += any(not c.is_zero() for c in images)
                continue
            formulas = _LEVELS[level][3](a, *(int_table(c.table) for c in cochains))
            references = REFERENCE_FORMULAS[level](a, *cochains)
            for (n, _), formula, reference in zip(_LEVELS[level][2], formulas, references):
                fn = divided(formula.probe(), formula.den)
                for _ in range(150):
                    idx = tuple(rng.randrange(a.dim) for _ in range(n))
                    value = fn(idx)
                    assert value == reference(idx), (a.name, level, idx)
                    nonzero += bool(value)
    assert nonzero


def test_contract_reads_arity_one_tables_at_one_tuples(algebras):
    # an arity-1 table is keyed (j,): read at j, h(x) nested in a bracket,
    # and h on its own, would both drop every term
    a = algebras[0]
    ops = FractionOps(a)
    h = _random_cochain(a, 1, random.Random(4106))
    tables = {"br": brackets(a)[0], "h": int_table(h.table)}
    nested, alone = (
        divided(contraction.probe(), contraction.den)
        for contraction in (
            contract(a, tables, [(1, "br", ((0, 0), ("h", 1)))]),
            contract(a, tables, [(1, "h", ((2, 1),))]),
        )
    )
    seen = 0
    for i, j in itertools.product(range(a.dim), repeat=2):
        hj = eval_sv(h, [ops.e[j]])
        assert nested((i, j)) == ops.br(ops.e[i], hj)
        assert alone((i, j)) == eval_sv(h, [al(ops, 2, ops.e[j])])
        seen += bool(nested((i, j))) + bool(alone((i, j)))
    assert seen
