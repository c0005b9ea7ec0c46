"""Exact rational linear algebra and algebra-structure helpers."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dahakz.linalg as la
from dahakz.errors import ScopeError
from dahakz.scalars import Cyclotomic, root_of_unity


def M(rows):
    return [[Q(x) for x in row] for row in rows]


def test_rref_and_rank():
    a = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = la.rref(a)
    assert pivots == [0, 1]
    assert la.rank(a) == 2


def test_nullspace_annihilates():
    a = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    ns = la.nullspace(a)
    assert len(ns) == 1
    assert all(v == 0 for v in la.mat_vec(a, ns[0]))


def test_inverse():
    a = M([[2, 1], [1, 1]])
    ai = la.inverse(a)
    assert la.mat_mul(a, ai) == la.identity(2)
    with pytest.raises(ValueError):
        la.inverse(M([[1, 2], [2, 4]]))


def test_det_exact():
    assert la.det(M([[1, 2], [3, 4]])) == -2
    assert la.det(M([[Q(1, 2), 0, 0], [5, Q(1, 3), 0], [7, 8, 6]])) == 1
    assert la.det(M([[1, 2], [2, 4]])) == 0


def test_in_span_and_row_space():
    red, pivots = la.rref(M([[1, 0, 1], [0, 1, 1], [1, 1, 2]]))
    basis = red[:len(pivots)]
    assert len(basis) == 2
    assert la.rank(basis + [[Q(2), Q(3), Q(5)]]) == la.rank(basis)
    assert la.rank(basis + [[Q(0), Q(0), Q(1)]]) != la.rank(basis)


def test_algebra_closure_full_matrix_algebra():
    e12 = M([[0, 1], [0, 0]])
    e21 = M([[0, 0], [1, 0]])
    basis = la.algebra_closure([e12, e21])
    assert len(basis) == 4


def test_commutant_of_full_algebra_is_scalars():
    e12 = M([[0, 1], [0, 0]])
    e21 = M([[0, 0], [1, 0]])
    comm = la.intertwiner_space([e12, e21], [e12, e21])
    assert len(comm) == 1


def test_wedderburn_semisimple_diagonal():
    # diag(1, 2) generates a 2-dimensional split commutative algebra
    d = M([[1, 0], [0, 2]])
    out = la.wedderburn_simple_count(la.algebra_closure([d]))
    assert out["algebra_dim"] == 2
    assert out["radical_dim"] == 0
    assert out["simple_count"] == 2


def test_wedderburn_with_radical():
    # upper-triangular 2x2: dim 3, radical dim 1, two simple blocks
    gens = [M([[1, 0], [0, 0]]), M([[0, 1], [0, 0]])]
    out = la.wedderburn_simple_count(la.algebra_closure(gens))
    assert out["algebra_dim"] == 3
    assert out["radical_dim"] == 1
    assert out["simple_count"] == 2


def test_wedderburn_matrix_block():
    # M_2 plus a scalar line: two simple summands, no radical
    e12 = [[Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(0)]]
    e21 = [[Q(0), Q(0), Q(0)], [Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(0)]]
    p3 = [[Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(1)]]
    out = la.wedderburn_simple_count(la.algebra_closure([e12, e21, p3]))
    assert out["algebra_dim"] == 5
    assert out["radical_dim"] == 0
    assert out["simple_count"] == 2


# -- exact linear algebra over Q(zeta_8), Fractions mixed in --------------------

Z = root_of_unity(Q(1, 8))


def cyclotomic_matrix():
    return [[Z, Q(1), Q(0)],
            [Q(1, 2), Z ** 2, Q(1)],
            [Q(0), Q(3), Z ** 3]]


def test_cyclotomic_det_by_cofactors():
    # z (z^2 z^3 - 3) - 1 (z^3 / 2 - 0) = z^6 - 3 z - z^3 / 2, and z^6 = -z^2
    expected = -Z ** 2 - Z * 3 - Z ** 3 * Q(1, 2)
    assert la.det(cyclotomic_matrix()) == expected


def test_cyclotomic_inverse():
    a = cyclotomic_matrix()
    assert la.mat_mul(la.inverse(a), a) == la.identity(3)
    assert la.mat_mul(a, la.inverse(a)) == la.identity(3)


def test_cyclotomic_nullspace_annihilates():
    r1 = [Z, Q(1), Q(0), Q(2, 5)]
    r2 = [Q(1, 2), Z ** 2, Q(1), Q(0)]
    r3 = [Q(0), Q(3), Z ** 3, Z]
    r4 = [x + Z * y for x, y in zip(r1, r2)]
    a = [r1, r2, r3, r4]
    ns = la.nullspace(a)
    assert len(ns) == 1
    assert all(v == 0 for v in la.mat_vec(a, ns[0]))
    assert la.det(a) == 0


def test_each_pivot_inverted_once(monkeypatch):
    # a cyclotomic inverse is an extended Euclid; dividing entry by entry
    # would call it for every entry of every pivot row
    calls = []
    orig = Cyclotomic.inverse

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    n = 4
    a = [[Z ** (i * j) + Q(i + 2 * j, j + 1) for j in range(n)] for i in range(n)]
    red, pivots = la.rref(a)
    assert len(pivots) == n
    assert len(calls) <= n
    del calls[:]
    assert la.det(a) != 0
    assert len(calls) <= n


def test_algebra_closure_upper_triangular_over_cyclotomics():
    gens = [M([[1, 0], [0, 0]]), [[Q(0), Z], [Q(0), Q(0)]]]
    basis = la.algebra_closure(gens)
    assert len(basis) == 3
    flat = [[x for row in b for x in row] for b in basis]
    assert la.rank(flat) == 3
    for b in basis:
        for g in gens:
            for prod in (la.mat_mul(b, g), la.mat_mul(g, b)):
                assert la.rank(flat + [[x for row in prod for x in row]]) == la.rank(flat)
    assert la.wedderburn_simple_count(basis) == {
        "algebra_dim": 3, "radical_dim": 1, "center_dim": 2, "simple_count": 2}


def test_wedderburn_direct_sum_over_cyclotomics():
    # M_2 beside the upper triangular 2x2 over Q(zeta_8): dim 4 + 3, the
    # radical is the corner zeta e12, and the simple blocks are M_2 and the
    # two diagonal lines
    zero = M([[0, 0], [0, 0]])
    e11, e12, e21 = M([[1, 0], [0, 0]]), M([[0, 1], [0, 0]]), M([[0, 0], [1, 0]])
    gens = [la.block_diagonal([e12, zero]), la.block_diagonal([e21, zero]),
            la.block_diagonal([zero, e11]),
            la.block_diagonal([zero, la.mat_scale(e12, Z)])]
    assert la.wedderburn_simple_count(la.algebra_closure(gens)) == {
        "algebra_dim": 7, "radical_dim": 1, "center_dim": 3, "simple_count": 3}


# -- weight spaces of commuting triangular families -----------------------------


def _stacked_power_spaces(mats):
    """Reference: nullspace of the stacked (T_j - lambda_j)^mult, per weight."""
    n = len(mats[0])
    diag = [tuple(m[b][b] for m in mats) for b in range(n)]
    weights = []
    for lam in diag:
        if all(lam != mu for mu in weights):
            weights.append(lam)
    out = []
    for lam in weights:
        mult = sum(1 for mu in diag if mu == lam)
        stacked = []
        for m, lj in zip(mats, lam):
            shifted = [[x - lj if r == c else x for c, x in enumerate(row)]
                       for r, row in enumerate(m)]
            power = shifted
            for _ in range(mult - 1):
                power = la.mat_mul(power, shifted)
            stacked.extend(power)
        out.append((lam, la.nullspace(stacked)))
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_triangular_weight_basis_against_stacked_powers(data):
    # T_2 = U is upper triangular with repeated diagonal entries (so Jordan
    # blocks), T_1 = U (U - 1) merges the weights 0 and 1 of U, and the
    # basis is permuted; diagonals are rational or in Q(zeta_8)
    n = data.draw(st.integers(1, 6))
    pool = [Q(0), Q(1), Q(-1, 2)]
    if data.draw(st.booleans()):
        pool += [Z, Z ** 3 + Q(1, 3)]
    diag = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    upper = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    u = [[diag[r] if r == c else Q(upper[r * n + c]) if r < c else Q(0)
          for c in range(n)] for r in range(n)]
    u_minus_1 = [[x - 1 if r == c else x for c, x in enumerate(row)]
                 for r, row in enumerate(u)]
    perm = data.draw(st.permutations(range(n)))
    mats = [[[m[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
            for m in (la.mat_mul(u, u_minus_1), u)]

    spaces = la.triangular_weight_basis(mats)
    reference = _stacked_power_spaces(mats)
    assert sorted(b for _, idx, _ in spaces for b in idx) == list(range(n))
    assert len(spaces) == len(reference)
    for (lam, idx, vecs), (ref_lam, ref) in zip(spaces, reference):
        assert lam == ref_lam and len(vecs) == len(idx) == len(ref)
        for b, v in zip(idx, vecs):
            assert all(v[c] == (1 if c == b else 0) for c in idx)
            for m, lj in zip(mats, lam):
                w = v
                for _ in idx:
                    w = [x - lj * y for x, y in zip(la.mat_vec(m, w), w)]
                assert all(x == 0 for x in w)
        # the reference spans the same space: brought to the unit form on
        # the coordinates idx, it is the same basis
        unit = la.inverse([[r[c] for c in idx] for r in ref])
        assert la.mat_mul(unit, ref) == vecs
    # all the vectors as columns are unit upper triangular in the order, and
    # back-substitution inverts them
    vmat = la.zeros(n, n)
    for _, idx, vecs in spaces:
        for b, v in zip(idx, vecs):
            for r, x in enumerate(v):
                vmat[r][b] = x
    inv = la.unit_triangular_inverse(vmat, la.triangular_order(mats))
    assert la.mat_mul(vmat, inv) == la.identity(n)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rational_weight_basis_equals_the_field_path(data):
    # a rational family runs on integer forms; the same family with every
    # entry a constant of Q(zeta_8) runs in the field.  Both give the same
    # weights, coordinates and vectors.  T_2 = U has Jordan blocks,
    # T_1 = U (U - 1) merges weights of U, and the basis is permuted, as in
    # the stacked-powers test
    n = data.draw(st.integers(1, 6))
    pool = [Q(0), Q(1), Q(-1, 2), Q(2, 3)]
    diag = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    upper = data.draw(st.lists(st.sampled_from([0, 0, 1, -2, Q(1, 3), Q(-3, 4)]),
                               min_size=n * n, max_size=n * n))
    u = [[diag[r] if r == c else Q(upper[r * n + c]) if r < c else Q(0)
          for c in range(n)] for r in range(n)]
    u_minus_1 = [[x - 1 if r == c else x for c, x in enumerate(row)]
                 for r, row in enumerate(u)]
    perm = data.draw(st.permutations(range(n)))
    mats = [[[m[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
            for m in (la.mat_mul(u, u_minus_1), u)]
    embedded = [[[Z.field.element([x]) for x in row] for row in m] for m in mats]

    rational, field = la.triangular_weight_basis(mats), la.triangular_weight_basis(embedded)
    assert all(type(x) is Q for _, _, vecs in rational for v in vecs for x in v)
    assert rational == field


def test_triangular_order_keeps_the_natural_order():
    u = M([[1, 2, 0], [0, 1, 3], [0, 0, 2]])
    assert la.triangular_order([u]) == [0, 1, 2]
    flipped = [row[::-1] for row in u[::-1]]
    assert la.triangular_order([flipped]) == [2, 1, 0]


def test_triangular_weight_basis_rejects_a_non_triangular_pair():
    # the first matrix puts 0 before 1, the second 1 before 0
    with pytest.raises(ScopeError, match="triangular"):
        la.triangular_weight_basis([M([[1, 1], [0, 2]]), M([[1, 0], [1, 2]])])


def test_unit_triangular_inverse_refuses_other_matrices():
    u = M([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
    assert la.mat_mul(u, la.unit_triangular_inverse(u, [0, 1, 2])) == la.identity(3)
    with pytest.raises(ValueError):
        la.unit_triangular_inverse(u, [2, 1, 0])  # lower triangular in that order
    with pytest.raises(ValueError):
        la.unit_triangular_inverse(M([[1, 2], [0, 2]]), [0, 1])  # not unit


def test_intertwiner_space_between_sizes():
    # L X = X R with L = diag(1, 2) and R = diag(2, 3, 1): X[i][j] may be
    # nonzero only where L_i = R_j; with zero generators every X intertwines
    left, right = [[Q(1), Q(0)], [Q(0), Q(2)]], [[Q(2), 0, 0], [0, Q(3), 0], [0, 0, Q(1)]]
    space = la.intertwiner_space([left], [right])
    assert space == [[[0, 0, 1], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]
    assert len(la.intertwiner_space([la.zeros(2, 2)], [la.zeros(3, 3)])) == 6
