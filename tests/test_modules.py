"""Standard and parabolic weight modules, intertwiner matrices, endomorphisms."""
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dahakz.affine as aw
import dahakz.linalg as la
from dahakz import rings, scalars
from dahakz.affine import HEART, HeckeParams, TorusPoint
from dahakz.cli import schur_example
from dahakz.errors import ScopeError
from dahakz.hecke import DahaElement
from dahakz.modules import (character, composition_check, degenerate_fiber,
                            endomorphism_algebra, induce, intertwiner_matrix,
                            invertibility, parabolic_fiber, parabolic_module,
                            standard_module, triangularity_check)
from dahakz.rootdata import type_a

D1 = type_a(1)
D2 = type_a(2)
P1 = HeckeParams.degenerate(Q(1, 2))
A1 = HeckeParams.from_exponent(Q(1, 2))


def test_standard_module_basis_is_orbit():
    mod = standard_module(D1, P1, (Q(1, 4),), window=6)
    assert mod.dimension == len(aw.ball(D1, 6))
    ch = character(mod)
    assert all(m == 1 for m in ch.mults.values())
    orbit_weights = set(aw.orbit(D1, (Q(1, 4),), 6))
    assert set(ch.mults) == orbit_weights


def test_standard_module_relations():
    window = 5
    mod = standard_module(D1, P1, (Q(1, 4),), window=window)
    s0, _ = mod.s_matrix(0)
    xi = mod.xi_matrix(0)
    n = mod.dimension
    # cross relation s xi = -xi s + h (coroot pairing 2 xi gives theta = 2);
    # compare away from the window edge where columns can leak
    lhs = la.mat_mul(s0, xi)
    rhs = la.mat_add(la.mat_scale(la.mat_mul(xi, s0), Q(-1)),
                     la.mat_scale(la.identity(n), P1.h))
    for col in range(n):
        gkey = mod.basis[col][0]
        g = aw.AffineWeylElement(*gkey)
        if aw.length(D1, g) <= window - 2:
            for row in range(n):
                assert lhs[row][col] == rhs[row][col]


def test_standard_module_triangular():
    mod = standard_module(D2, HeckeParams.degenerate(Q(1, 3)),
                          (Q(1, 5), Q(1, 7)), window=3)
    for j in range(2):
        assert triangularity_check(mod, j)


def test_standard_module_rejects_singular_point():
    with pytest.raises(ScopeError):
        standard_module(D1, P1, (Q(0),), window=4)


def test_intertwiner_singular_on_wall():
    # (mu : alpha-vee) = h at mu = (1/4): the block determinant vanishes
    out = intertwiner_matrix(D1, P1, aw.simple_reflection(D1, 0),
                             (Q(1, 4),), window=8)
    assert out["singular"]
    assert not out["leaked"] or out["skipped"]


def test_intertwiner_invertible_off_wall():
    # (mu : alpha-vee) = 3/2 avoids +-h: every interior block is invertible
    out = intertwiner_matrix(D1, P1, aw.simple_reflection(D1, 0),
                             (Q(3, 4),), window=8)
    assert not out["singular"]
    assert out["blocks"]


@pytest.mark.parametrize("n", [1, 2])
def test_aha_intertwiner_singular_exactly_on_the_wall(n):
    # y_{alpha-vee}(ell) = zeta only at the exponent 1/4; with jets of order
    # n each of the two weight blocks has size n
    for mu in (Q(1, 4), Q(1, 8), Q(3, 8)):
        ell = TorusPoint.from_exponent(D1, (mu,))
        out = intertwiner_matrix(D1, A1, D1.w_simple[0], ell, n=n, side="aha")
        assert out["singular"] == (mu == Q(1, 4))
        assert not out["leaked"] and not out["skipped"]
        assert len(out["blocks"]) == 2
        assert all(b["size"] == n for b in out["blocks"].values())
        if mu != Q(1, 4):
            assert all(b["det"] != 0 for b in out["blocks"].values())


def test_degenerate_intertwiner_with_jets():
    # n = 2: xi has Jordan blocks, so each weight block is 2 x 2 and its
    # basis vectors mix basis elements; singular on the wall only
    s1 = aw.simple_reflection(D1, 0)
    for mu, singular in ((Q(1, 4), True), (Q(3, 4), False)):
        out = intertwiner_matrix(D1, P1, s1, (mu,), window=6, n=2)
        assert out["singular"] == singular
        assert out["blocks"]
        assert all(b["size"] == 2 for b in out["blocks"].values())
        if not singular:
            assert all(b["det"] != 0 for b in out["blocks"].values())


# criterion 4's three intertwiners at window 12: every block has size 1, and
# its determinant is listed with the weights 4 mu of the blocks that have it;
# the skipped weights are listed as 4 mu, in the order they are skipped
CRITERION_4_BLOCKS = [
    ([0], Q(1, 4), {Q(1, 2): [-21, -17, -13, -9, -5, -1, 5, 9, 13, 17, 21],
                    Q(0): [-15, -11, -7, -3, 1, 3, 7, 11, 15, 19]},
     [-19, -25, 23, 25]),
    ([0], Q(3, 4), {Q(4, 3): [-13, -9, -5, -1, 1, 3, 5, 9, 13, 17],
                    Q(3, 2): [-23, -19, -15, -11, -7, -3, 7, 11, 15, 19, 23]},
     [-17, -27, 21, 27]),
    ([HEART, 0], Q(7, 4), {Q(320, 21): [-5, -3, -1, 1, 3, 5, 7, 9],
                           Q(63, 4): [-27, -23, -19, -15, -11, 11, 15, 19, 23, 27],
                           Q(140, 9): [-7]},
     [-13, -31, -9, 13, 31, 35]),
]


@pytest.mark.parametrize("word, mu, dets, skipped", CRITERION_4_BLOCKS)
def test_criterion_4_block_determinants_are_pinned(word, mu, dets, skipped):
    out = intertwiner_matrix(D1, P1, aw.element_from_word(D1, word), (mu,), window=12)
    assert {wt: (b["det"], b["size"]) for wt, b in out["blocks"].items()} == {
        (Q(k, 4),): (det, 1) for det, ks in dets.items() for k in ks}
    assert all(type(b["det"]) is Q for b in out["blocks"].values())
    assert out["skipped"] == [(Q(k, 4),) for k in skipped]


def test_invertibility_letterwise():
    out = invertibility(D1, P1, [0], (Q(1, 4),))
    assert not out["invertible"] and out["witness"] == 0
    out2 = invertibility(D1, P1, [0], (Q(3, 4),))
    assert out2["invertible"]
    # the pairing values are reported in order
    assert out2["values"] == [Q(3, 2)]


def test_invertibility_aha_side():
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    out = invertibility(D1, A1, [0], ell, side="aha")
    # y_{alpha-vee}(ell) = e^{pi i} = zeta: the letter is singular
    assert not out["invertible"]


def test_invertibility_rejects_letters_outside_the_side():
    # HEART == -1 would index the last finite simple root: the AHA side
    # has no affine letter, and no side has the letter r
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    for word, side, params, point in (([HEART], "aha", A1, ell),
                                      ([0, HEART], "aha", A1, ell),
                                      ([1], "aha", A1, ell),
                                      ([1], "degenerate", P1, (Q(3, 4),))):
        with pytest.raises(ScopeError):
            invertibility(D1, params, word, point, side=side)


def test_aha_standard_module_quadratic():
    ell = TorusPoint.from_exponent(D1, (Q(1, 5),))
    mod = standard_module(D1, A1, ell, side="aha")
    assert mod.dimension == 2
    t = mod.t_matrix(0)
    n = mod.dimension
    prod = la.mat_mul(la.mat_sub(t, la.mat_scale(la.identity(n), A1.zeta)),
                      la.mat_add(t, la.identity(n)))
    assert all(not x for row in prod for x in row)


def test_aha_parabolic_module_orbit_points():
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    mod = parabolic_module(D1, A1, (0,), [ell, ell.inverse_point()],
                           side="aha")
    assert mod.dimension == 2
    with pytest.raises(ScopeError):
        parabolic_module(D1, A1, (0,), [ell], side="aha")


def test_aha_repeated_point_rejected():
    # the orbit [ell, s ell] with ell repeated is closed and regular, but a
    # repeated point would give the jet algebra a basis index twice
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    sl = ell.act_w(D1.w_simple[0])
    with pytest.raises(ScopeError):
        parabolic_module(D1, A1, (0,), [ell, sl, ell], side="aha")


def test_aha_orbit_point_found_by_equality():
    # -zeta_8^2 equals s ell = -i but lives in a larger field; it hashes
    # as -i does, and the deformed t-action finds the image point by ==
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    sl = ell.act_w(D1.w_simple[0])
    big = (-scalars.cyclotomic_field(8).element([0, 0, 1, 0]),)
    assert big == sl.values and hash(big) == hash(sl.values)
    mod = parabolic_module(D1, A1, (0,), [ell, big], side="aha")
    ref = parabolic_module(D1, A1, (0,), [ell, sl], side="aha")
    assert mod.t_matrix(0) == ref.t_matrix(0)


@pytest.mark.parametrize("h0", [Q(1, 2), Q(1, 3)])
def test_aha_parabolic_jets_relations(h0):
    # the deformed t-action on jets of order 2: quadratic relation
    # (T - zeta)(T + 1) = 0 and the rank-one Bernstein relation
    # T Y - Y^{-1} T = (zeta - 1) Y, Y = y_{omega-vee}
    params = HeckeParams.from_exponent(h0)
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    mod = parabolic_module(D1, params, (0,), [ell, ell.act_w(D1.w_simple[0])],
                           n=2, side="aha")
    n = mod.dimension
    assert n == 4
    t, y, yinv = mod.t_matrix(0), mod.y_matrix((1,)), mod.y_matrix((-1,))
    one = la.identity(n)
    quad = la.mat_mul(la.mat_sub(t, la.mat_scale(one, params.zeta)), la.mat_add(t, one))
    bern = la.mat_sub(la.mat_sub(la.mat_mul(t, y), la.mat_mul(yinv, t)),
                      la.mat_scale(y, params.zeta - 1))
    assert all(not x for row in quad + bern for x in row)


def test_endomorphism_algebra_generic_simple():
    ell = TorusPoint.from_exponent(D1, (Q(1, 5),))
    mod = standard_module(D1, A1, ell, side="aha")
    out = endomorphism_algebra([mod])
    assert out["dimension"] == 1
    assert out["simple_count"] == 1



@pytest.mark.parametrize("n, h0, counts", [
    (1, Q(1, 2), (10, 6, 4)), (1, Q(1, 3), (9, 0, 1)),
    (2, Q(1, 2), (11, 8, 3)), (2, Q(1, 3), (10, 5, 2)),
    (3, Q(1, 2), (12, 9, 3)), (3, Q(1, 3), (11, 6, 2)),
])
def test_schur_example_counts(n, h0, counts):
    # (algebra, radical, center = simple) of End(P(l0) + P(l0^-1) + P_I(O)_n)
    out = schur_example(D1, HeckeParams.from_exponent(h0), n)
    algebra, radical, center = counts
    assert out["endo_dimension"] == out["algebra_dim"] == algebra
    assert out["radical_dim"] == radical
    assert out["center_dim"] == out["simple_count"] == center

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("h0", [Q(1, 2), Q(1, 3)])
def test_blockwise_commutant_is_the_stacked_commutant(n, h0):
    # the Schur example's summands, as schur_example builds them: the
    # block-wise basis commutes with every generator of the direct sum, is
    # independent, and has as many elements as the nullspace of the one
    # stacked system XG - GX = 0 over all generators
    params = HeckeParams.from_exponent(h0)
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    mods = [standard_module(D1, params, ell, side="aha"),
            standard_module(D1, params, ell.inverse_point(), side="aha"),
            parabolic_module(D1, params, (0,), [ell, ell.inverse_point()],
                             n=n, side="aha")]
    basis = endomorphism_algebra(mods)["basis"]
    gens = [la.block_diagonal([m.t_matrix(0) for m in mods]),
            la.block_diagonal([m.coordinate_matrix(0) for m in mods])]
    for x in basis:
        for g in gens:
            assert la.mat_sub(la.mat_mul(x, g), la.mat_mul(g, x)) == \
                la.zeros(len(g), len(g))
    flat = [[e for row in x for e in row] for x in basis]
    assert la.rank(flat) == len(basis)
    size = len(gens[0])
    stacked = []
    for g in gens:
        for i in range(size):
            for j in range(size):
                row = [Q(0)] * (size * size)
                for k in range(size):
                    row[i * size + k] += g[k][j]
                    row[k * size + j] -= g[i][k]
                stacked.append(row)
    assert len(basis) == size * size - la.rank(stacked)


def test_composition_series_family_point():
    out = composition_check(D1, (Q(1, 4),), Q(1, 2), window=14,
                            weight_bound=Q(4),
                            ws=[aw.identity(D1),
                                aw.simple_reflection(D1, HEART)])
    assert out["all_equal"]


def test_induced_module_character():
    ind = induce(degenerate_fiber(D1, P1, (Q(1, 4),)), window=4)
    # one basis vector per group element in the window
    assert ind.dimension == len(aw.ball(D1, 4))
    assert all(m == 1 for m in character(ind).mults.values())


@pytest.mark.parametrize("datum,params,J,points,n,window", [
    (D1, P1, (), [(Q(1, 4),)], 1, 4),
    (D1, P1, (), [(Q(1, 4),)], 2, 4),
    (D1, P1, (0,), [(Q(-1, 4),), (Q(1, 4),)], 1, 4),
    (D1, P1, (0,), [(Q(-1, 4),), (Q(1, 4),)], 2, 4),
    (D2, HeckeParams.degenerate(Q(1, 3)), (), [(Q(-4, 5), Q(-6, 7))], 1, 3),
], ids=["A1-n1", "A1-n2", "A1-J0-n1", "A1-J0-n2", "A2-deep"])
def test_fiber_is_a_submodule_of_its_induction(datum, params, J, points, n, window):
    # the finite s_i and the xi_j keep the fiber's span: at every fiber
    # label the induced columns are the fiber's, and zero off the fiber
    fiber = parabolic_fiber(datum, params, J, points, n)
    ind = induce(fiber, window)
    pairs = [(fiber.s_matrix(i)[0], ind.s_matrix(i)[0]) for i in range(datum.rank)]
    pairs += [(fiber.xi_matrix(j), ind.xi_matrix(j)) for j in range(datum.rank)]
    for fmat, imat in pairs:
        for fcol, label in enumerate(fiber.basis):
            icol = ind.index[label]
            for irow, row_label in enumerate(ind.basis):
                frow = fiber.index.get(row_label)
                expected = 0 if frow is None else fmat[frow][fcol]
                assert imat[irow][icol] == expected


def test_degenerate_fiber_matches_group_order():
    lam = (Q(1, 5), Q(1, 7))
    fiber = degenerate_fiber(D2, HeckeParams.degenerate(Q(1, 3)), lam)
    assert fiber.dimension == D2.w_order
    assert sorted(fiber.weight_of(b) for b in range(fiber.dimension)) \
        == sorted(tuple(D2.w_act_weight(w, lam)) for w in range(D2.w_order))
    for i in range(2):
        s, leaked = fiber.s_matrix(i)
        assert not leaked and la.mat_mul(s, s) == la.identity(D2.w_order)


def test_fibers_are_triangular():
    # the xi_j of a finite fiber are triangular with the basis weights on
    # the diagonal, jets included
    deep = degenerate_fiber(D2, HeckeParams.degenerate(Q(1, 3)),
                            (Q(-4, 5), Q(-6, 7)))
    assert all(triangularity_check(deep, j) for j in range(2))
    orbit = [(Q(-1, 4),), (Q(1, 4),)]
    for n in (1, 2):
        assert triangularity_check(parabolic_fiber(D1, P1, (0,), orbit, n), 0)


def test_fiber_scope_is_finite_regularity():
    # a fiber has a finite group part, so only a finite stabilizer is out of
    # scope; 5/2 and -5/2 differ by an integer, which the windowed modules
    # refuse and the fiber leaves to the connection's checks
    assert degenerate_fiber(D1, P1, (Q(5, 2),)).dimension == 2
    with pytest.raises(ScopeError):
        standard_module(D1, P1, (Q(5, 2),), window=4)
    with pytest.raises(ScopeError):
        degenerate_fiber(D1, P1, (Q(0),))
    with pytest.raises(ScopeError):
        parabolic_fiber(D1, P1, (0,), [(Q(0),)])


def test_induce_scope():
    # induction is to a length window on the degenerate side
    aha = standard_module(D1, A1, TorusPoint.from_exponent(D1, (Q(1, 8),)), side="aha")
    with pytest.raises(ScopeError):
        induce(aha, window=4)
    with pytest.raises(ScopeError):
        induce(degenerate_fiber(D1, P1, (Q(1, 4),)), window=None)


def test_xi_matrix_sums_in_place(monkeypatch):
    # a loop that sums polynomials with + copies the whole term dict on every
    # add; the products sum in place (about 750 adds here, 4707 with +)
    mod = standard_module(D1, P1, (Q(1, 4),), window=12)
    calls = []
    orig = rings._DictRing.__add__

    def counted(self, other):
        calls.append(1)
        return orig(self, other)

    monkeypatch.setattr(rings._DictRing, "__add__", counted)
    mod.xi_matrix(0)
    assert len(calls) <= 1500


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_xi_recursion_matches_the_generic_product(data):
    # the length recursion gives exactly the matrix of the generic product
    # xi_j * (basis lift), on windowed modules (affine letters in the
    # words) and on the finite fibers
    datum = data.draw(st.sampled_from([D1, D2]))
    h = data.draw(st.sampled_from([Q(1, 2), Q(1, 3), Q(-2, 7)]))
    params = HeckeParams.degenerate(h)
    J = data.draw(st.sampled_from([(), (0,)]))
    n = data.draw(st.integers(1, 2))
    mu = tuple(Q(data.draw(st.integers(-9, 9)), q) for q in (5, 7)[:datum.rank])
    points = sorted({mu, tuple(datum.w_act_weight(datum.w_simple[0], mu))}) if J else [mu]
    fiber = data.draw(st.booleans())
    try:
        if fiber:
            mod = parabolic_fiber(datum, params, J, points, n)
        else:
            window = data.draw(st.integers(1, 7 if datum.rank == 1 else 3))
            mod = parabolic_module(datum, params, J, points, window, n)
    except ScopeError:
        assume(False)
    for j in range(datum.rank):
        generic = mod.matrix_of(DahaElement.from_poly(
            datum, params, rings.xi_variable(datum, j)))[0]
        assert mod.xi_matrix(j) == generic


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_direct_s_columns_equal_the_generic_product(data):
    # _s_columns reads s_i (g L v) = (s_i g) L v off the coset form of s_i g;
    # its columns and leakage are those of the generic product s_i * (basis
    # lift), on standard, parabolic (J = (0,)) and jet (n = 2) modules and
    # fibers, for every letter, the affine one included
    datum = data.draw(st.sampled_from([D1, D2]))
    h = data.draw(st.sampled_from([Q(1, 2), Q(1, 3), Q(-2, 7)]))
    params = HeckeParams.degenerate(h)
    J = data.draw(st.sampled_from([(), (0,)]))
    n = data.draw(st.integers(1, 2))
    mu = tuple(Q(data.draw(st.integers(-9, 9)), q) for q in (5, 7)[:datum.rank])
    points = sorted({mu, tuple(datum.w_act_weight(datum.w_simple[0], mu))}) if J else [mu]
    fiber = data.draw(st.booleans())
    try:
        if fiber:
            mod = parabolic_fiber(datum, params, J, points, n)
        else:
            window = data.draw(st.integers(1, 7 if datum.rank == 1 else 3))
            mod = parabolic_module(datum, params, J, points, window, n)
    except ScopeError:
        assume(False)
    for i in (*range(datum.rank), HEART):
        generic = mod._columns(DahaElement.from_group(
            datum, params, aw.simple_reflection(datum, i)))
        assert mod._s_columns(i) == generic
