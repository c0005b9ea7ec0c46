"""Exact rational linear algebra and algebra-structure helpers."""
from fractions import Fraction as Q

import pytest

import dahakz.linalg as la
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


def test_solve_and_inverse():
    a = M([[2, 1], [1, 1]])
    b = [Q(3), Q(2)]
    x = la.solve(a, b)
    assert la.mat_vec(a, x) == b
    ai = la.inverse(a)
    assert la.mat_mul(a, ai) == la.identity(2)
    with pytest.raises(ValueError):
        la.inverse(M([[1, 2], [2, 4]]))


def test_det_exact():
    assert la.det(M([[1, 2], [3, 4]])) == -2
    assert la.det(M([[Q(1, 2), 0, 0], [5, Q(1, 3), 0], [7, 8, 6]])) == 1
    assert la.det(M([[1, 2], [2, 4]])) == 0


def test_in_span_and_row_space():
    basis = la.row_space_basis(M([[1, 0, 1], [0, 1, 1], [1, 1, 2]]))
    assert len(basis) == 2
    assert la.in_span(basis, [Q(2), Q(3), Q(5)])
    assert not la.in_span(basis, [Q(0), Q(0), Q(1)])


def test_algebra_closure_full_matrix_algebra():
    e12 = M([[0, 1], [0, 0]])
    e21 = M([[0, 0], [1, 0]])
    basis = la.algebra_closure([e12, e21])
    assert len(basis) == 4


def test_commutant_of_full_algebra_is_scalars():
    e12 = M([[0, 1], [0, 0]])
    e21 = M([[0, 0], [1, 0]])
    comm = la.commutant_basis([e12, e21])
    assert len(comm) == 1


def test_wedderburn_semisimple_diagonal():
    # diag(1, 2) generates a 2-dimensional split commutative algebra
    d = M([[1, 0], [0, 2]])
    out = la.wedderburn_simple_count([d])
    assert out["algebra_dim"] == 2
    assert out["radical_dim"] == 0
    assert out["simple_count"] == 2


def test_wedderburn_with_radical():
    # upper-triangular 2x2: dim 3, radical dim 1, two simple blocks
    gens = [M([[1, 0], [0, 0]]), M([[0, 1], [0, 0]])]
    out = la.wedderburn_simple_count(gens)
    assert out["algebra_dim"] == 3
    assert out["radical_dim"] == 1
    assert out["simple_count"] == 2


def test_wedderburn_matrix_block():
    # M_2 plus a scalar line: two simple summands, no radical
    e12 = [[Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(0)]]
    e21 = [[Q(0), Q(0), Q(0)], [Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(0)]]
    p3 = [[Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(1)]]
    out = la.wedderburn_simple_count([e12, e21, p3])
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


def test_cyclotomic_solve_and_inverse():
    a = cyclotomic_matrix()
    b = [Q(1), Z, Q(-2, 3)]
    assert la.mat_vec(a, la.solve(a, b)) == b
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
                assert la.in_span(flat, [x for row in prod for x in row])
    assert la.wedderburn_simple_count(gens) == {
        "algebra_dim": 3, "radical_dim": 1, "center_dim": 2, "simple_count": 2}
