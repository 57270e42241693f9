import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from algindex import cli
from algindex import groupoid as gp
from algindex import linalg

import oracles


@pytest.fixture(scope="module")
def pair3():
    return gp.pair_groupoid(3)


@pytest.fixture(scope="module")
def z2():
    return gp.cyclic_group_groupoid(2)


def random_function(rng, G):
    return {g: Fraction(rng.randint(-5, 5)) for g in G.arrows}


def own_table(G):
    """G's composition written out as a table {(g1, g2): g1 * g2}."""
    return {(g1, g2): G.compose(g1, g2)
            for g1 in G.arrows for g2 in G.arrows if G.composable(g1, g2)}


def from_own_table(G, table=None):
    table = own_table(G) if table is None else table
    return gp.FiniteGroupoid.from_table(
        G.objects, G.arrows, G.source, G.target, G.unit, G.inverse, table)


# -- groupoid axioms ---------------------------------------------------------------


def test_pair_groupoid_axioms_hold(pair3):
    # construction checks endpoints, units and inverses; associativity holds
    # by the formula (x, y)(y, z) = (x, z) and is checked by the next test
    assert len(pair3.objects) == 3 and len(pair3.arrows) == 9


@pytest.mark.parametrize("G", [
    *(gp.pair_groupoid(n) for n in range(2, 5)),
    *(gp.cyclic_group_groupoid(n) for n in range(2, 6)),
    oracles.disjoint_union(gp.pair_groupoid(2), gp.cyclic_group_groupoid(3)),
], ids=repr)
def test_formula_compositions_pass_the_full_table_check(G):
    H = from_own_table(G)
    assert all(H.compose(g1, g2) == G.compose(g1, g2)
               for g1 in G.arrows for g2 in G.leaving[G.target[g1]])


def test_broken_associativity_is_rejected():
    # tamper with a composition entry of Z/3
    table = own_table(gp.cyclic_group_groupoid(3))
    table[(1, 1)] = 0  # should be 2
    with pytest.raises(gp.GroupoidError, match="associativity fails"):
        from_own_table(gp.cyclic_group_groupoid(3), table)


def test_table_must_match_composability():
    G = gp.pair_groupoid(2)
    table = own_table(G)
    del table[((0, 1), (1, 0))]
    with pytest.raises(gp.GroupoidError, match="7 entries for 8 composable pairs"):
        from_own_table(G, table)
    table[((0, 1), (0, 1))] = (0, 1)  # t(0, 1) = 1 is not s(0, 1) = 0
    with pytest.raises(gp.GroupoidError, match="disagrees with composability"):
        from_own_table(G, table)


def test_formula_composition_refuses_non_composable_pairs(pair3):
    with pytest.raises(gp.GroupoidError, match="not composable"):
        pair3.compose((0, 1), (2, 0))


def test_representation_axioms_enforced(z2):
    dims = {"*": 1}
    bad = {0: [[Fraction(1)]], 1: [[Fraction(2)]]}  # 2 * 2 != 1
    with pytest.raises(gp.GroupoidError):
        gp.FiniteRep(z2, dims, bad)
    sign = {0: [[Fraction(1)]], 1: [[Fraction(-1)]]}
    rep = gp.FiniteRep(z2, dims, sign)
    assert rep.matrices[1][0][0] == -1


# -- cohomology ---------------------------------------------------------------------


def test_pair3_betti(pair3):
    rep = gp.FiniteRep.trivial(pair3)
    assert gp.groupoid_cohomology(pair3, rep, 3) == [1, 0, 0, 0]


def test_disjoint_union_counts_orbits():
    union = oracles.disjoint_union(gp.pair_groupoid(2), gp.pair_groupoid(3))
    rep = gp.FiniteRep.trivial(union)
    betti = gp.groupoid_cohomology(union, rep, 2)
    assert betti == [2, 0, 0]
    assert betti[0] == oracles.orbit_count(union)


def test_z2_betti_rational_coefficients(z2):
    rep = gp.FiniteRep.trivial(z2)
    assert gp.groupoid_cohomology(z2, rep, 3) == [1, 0, 0, 0]


def test_b0_counts_orbits_for_trivial_rep():
    for G in (
        gp.pair_groupoid(4),
        oracles.disjoint_union(gp.cyclic_group_groupoid(2), gp.pair_groupoid(2)),
    ):
        rep = gp.FiniteRep.trivial(G)
        betti = gp.groupoid_cohomology(G, rep, 1)
        assert betti[0] == oracles.orbit_count(G)


def test_sign_representation_of_z2_has_no_cohomology(z2):
    rep = gp.FiniteRep(z2, {"*": 1}, {0: [[Fraction(1)]], 1: [[Fraction(-1)]]})
    assert gp.groupoid_cohomology(z2, rep, 2) == [0, 0, 0]


def _dense_differential(G, rep, k):
    """d: C^k -> C^{k+1} as a dense list of rows."""
    return oracles.dense(gp.differential_matrix(G, rep, k), gp._cochain_dims(G, rep, k)[k])


def _sign_rep_of_z2():
    z2 = gp.cyclic_group_groupoid(2)
    return gp.FiniteRep(z2, {"*": 1}, {0: [[Fraction(1)]], 1: [[Fraction(-1)]]})


@pytest.mark.parametrize("make_rep", [
    lambda: gp.FiniteRep.trivial(gp.pair_groupoid(2)),
    lambda: gp.FiniteRep.trivial(gp.pair_groupoid(3)),
    lambda: gp.FiniteRep.trivial(gp.cyclic_group_groupoid(3)),
    lambda: gp.FiniteRep.trivial(gp.cyclic_group_groupoid(4)),
    lambda: gp.FiniteRep.trivial(
        oracles.disjoint_union(gp.pair_groupoid(2), gp.cyclic_group_groupoid(2))),
    _sign_rep_of_z2,
    lambda: gp.FiniteRep.trivial(gp.pair_groupoid(2), 2),
], ids=["pair2", "pair3", "cyclic3", "cyclic4", "pair2+cyclic2", "z2-sign", "pair2-fibre2"])
def test_betti_numbers_match_the_full_complex_oracle(make_rep):
    rep = make_rep()
    G = rep.groupoid
    expected = oracles.full_groupoid_betti_numbers(G, rep.dims, rep.matrices, 3)
    assert gp.groupoid_cohomology(G, rep, 3) == expected


def test_h0_is_invariant_sections(pair3):
    rep = gp.FiniteRep.trivial(pair3)
    d0 = _dense_differential(pair3, rep, 0)
    assert len(d0[0]) - oracles.row_reduce_rank(d0) == 1
    # the invariant section is constant across objects
    assert all(sum(row) == 0 for row in d0)


def test_d_squared_is_zero_exact(pair3, z2):
    for G in (pair3, z2):
        rep = gp.FiniteRep.trivial(G)
        for k in range(3):
            d_k = _dense_differential(G, rep, k)
            d_next = _dense_differential(G, rep, k + 1)
            product = linalg.matmul(d_next, d_k)
            assert all(v == 0 for row in product for v in row), (G, k)


def test_d_squared_with_nontrivial_representation(z2):
    rep = gp.FiniteRep(z2, {"*": 2}, {
        0: linalg.identity(2),
        1: [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
    })
    for k in range(3):
        d_k = _dense_differential(z2, rep, k)
        d_next = _dense_differential(z2, rep, k + 1)
        product = linalg.matmul(d_next, d_k)
        assert all(v == 0 for row in product for v in row)


# -- convolution -----------------------------------------------------------------------


def test_convolution_is_matrix_multiplication(pair3):
    rng = random.Random(1717)
    for _ in range(5):
        f1, f2 = random_function(rng, pair3), random_function(rng, pair3)
        conv = gp.convolve(f1, f2, pair3)
        m1 = gp.arrow_matrix_bijection(pair3, f1, 3)
        m2 = gp.arrow_matrix_bijection(pair3, f2, 3)
        assert gp.arrow_matrix_bijection(pair3, conv, 3) == linalg.matmul(m1, m2)


def test_unit_function_is_identity(pair3):
    rng = random.Random(1818)
    f = random_function(rng, pair3)
    unit = gp.unit_function(pair3)
    assert gp.convolve(unit, f, pair3) == f
    assert gp.convolve(f, unit, pair3) == f


def test_convolution_associative(pair3, z2):
    rng = random.Random(1919)
    for G in (pair3, z2):
        for _ in range(5):
            f1, f2, f3 = (random_function(rng, G) for _ in range(3))
            left = gp.convolve(gp.convolve(f1, f2, G), f3, G)
            right = gp.convolve(f1, gp.convolve(f2, f3, G), G)
            assert left == right


@pytest.mark.parametrize("G", [
    gp.pair_groupoid(3),
    gp.cyclic_group_groupoid(4),
    oracles.disjoint_union(gp.pair_groupoid(2), gp.cyclic_group_groupoid(2)),
], ids=repr)
def test_convolution_table_matches_convolved_deltas(G):
    ctx = SimpleNamespace(ref=lambda kind, name: G)
    table = cli._convolution_table(ctx, {"groupoid": "G"}, {})["table"]
    expected = {}
    for g1 in G.arrows:
        for g2 in G.arrows:
            conv = gp.convolve(gp.delta(G, g1), gp.delta(G, g2), G)
            support = {str(g): str(v) for g, v in conv.items() if v}
            if support:
                expected[f"{g1}*{g2}"] = support
    assert table == expected


def test_z2_group_algebra(z2):
    a = {0: Fraction(2), 1: Fraction(3)}
    b = {0: Fraction(5), 1: Fraction(7)}
    assert gp.convolve(a, b, z2) == {0: Fraction(31), 1: Fraction(29)}


# -- trace -----------------------------------------------------------------------------


def test_trace_is_matrix_trace(pair3):
    rng = random.Random(2020)
    weights = {x: Fraction(1) for x in pair3.objects}
    for _ in range(5):
        f1, f2 = random_function(rng, pair3), random_function(rng, pair3)
        conv = gp.convolve(f1, f2, pair3)
        matrix = linalg.matmul(
            gp.arrow_matrix_bijection(pair3, f1, 3),
            gp.arrow_matrix_bijection(pair3, f2, 3),
        )
        assert gp.trace(conv, weights, pair3) == sum(
            matrix[i][i] for i in range(3)
        )


def test_trace_vanishes_off_units(pair3):
    weights = {x: Fraction(1) for x in pair3.objects}
    off_units = {g: Fraction(1 if g[0] != g[1] else 0) for g in pair3.arrows}
    assert gp.trace(off_units, weights, pair3) == 0


def test_trace_cyclicity_exact(pair3, z2):
    rng = random.Random(2121)
    for G, weights in (
        (pair3, {x: Fraction(2) for x in pair3.objects}),
        (z2, {"*": Fraction(3)}),
    ):
        for _ in range(5):
            f1, f2 = random_function(rng, G), random_function(rng, G)
            lhs = gp.trace(gp.convolve(f1, f2, G), weights, G)
            rhs = gp.trace(gp.convolve(f2, f1, G), weights, G)
            assert lhs == rhs


def test_non_invariant_weights_rejected_with_counterexample(pair3):
    weights = {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)}
    assert not gp.is_invariant_weight(pair3, weights)
    f1, f2 = gp.invariance_counterexample(pair3, weights)

    # the exhibited pair genuinely breaks cyclicity of the naive sum
    def naive(f):
        return sum(
            f.get(pair3.unit[x], Fraction(0)) * weights[x] for x in pair3.objects
        )
    assert naive(gp.convolve(f1, f2, pair3)) != naive(gp.convolve(f2, f1, pair3))
    with pytest.raises(gp.GroupoidError, match="orbit"):
        gp.trace(f1, weights, pair3)


def test_invariant_weights_constant_on_orbits_only():
    union = oracles.disjoint_union(gp.pair_groupoid(2), gp.pair_groupoid(2))
    weights = {x: Fraction(1 if x[0] == 0 else 5) for x in union.objects}
    assert gp.is_invariant_weight(union, weights)
    f = {g: Fraction(1) for g in union.arrows}
    assert gp.trace(f, weights, union) == 2 * 1 + 2 * 5
