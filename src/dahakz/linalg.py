"""Exact linear algebra over generic exact fields (Fraction, cyclotomic).

Matrices are lists of lists of field elements.  Scalars only need the
arithmetic operators (+, -, *, /), equality, and truthiness for a zero
test, so Fraction and Cyclotomic entries can be mixed freely within a
matrix as long as they promote under arithmetic.

Every elimination inverts each pivot once and multiplies by the inverse:
a cyclotomic inverse is an extended Euclid over Q[x], far dearer than a
product, so dividing entry by entry would repeat it for every entry.
Row operations run only over the pivot row's nonzero columns.

Commuting triangular families have their own toolkit, with no elimination.
triangular_order finds a basis order in which every matrix of a family is
upper triangular.  In that order each prefix of the basis spans an
invariant subspace, so the joint generalized weight space W_lambda of the
weight lambda projects isomorphically onto the coordinates I_lambda whose
diagonal weight is lambda.  That makes one basis of W_lambda canonical:
v_b is 1 at b, 0 at the other coordinates of I_lambda, and is supported on
b and the coordinates before it.  triangular_weight_basis computes it by
back-substitution, one column at a time, and the matrix of that basis is
unit upper triangular in the order, so unit_triangular_inverse inverts it
by back-substitution too.  triangular_weight_basis picks its path from
the entries.  A rational family runs on integer forms, with no per-entry
Fraction: it is scaled once to integer matrices over one denominator, and
each vector is back-substituted as integer numerators over one
denominator, gcd-reduced.  A family with a cyclotomic entry runs in its
field.  weight_basis_forms returns the vectors in that form, and
sparse_form a matrix as sparse integer rows over one denominator, so that
a caller can test membership and read coordinates by integer dot products.

Matrix algebras are given by a basis: algebra_closure builds one, and so
does intertwiner_space(gens, gens), the commutant.  intertwiner_space is
the nullspace of the linear system L X = X R; a caller whose generators are
block-diagonal solves it one pair of blocks at a time, on systems of the
blocks' sizes.  wedderburn_simple_count counts the simple summands of
A/rad A as rank G - rank T, two ranks of trace forms (G the Gram matrix
tr(b_i b_k), T the traces tr(b_i [b_j, b_k]) against commutators).
"""

import math
from fractions import Fraction as Q
from typing import List, Sequence, Tuple

from .errors import ScopeError

Matrix = List[List[object]]


def zeros(rows: int, cols: int) -> Matrix:
    """Matrix of rational zeros."""
    return [[Q(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    """Rational identity matrix."""
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = Q(1)
    return mat


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if not c:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + c * bk[j]
    return out


def mat_vec(a: Matrix, v: Sequence) -> list:
    return [sum((c * x for c, x in zip(row, v) if c), Q(0)) for row in a]


def block_diagonal(mats: Sequence[Matrix]) -> Matrix:
    """Direct sum of square matrices, in the order given."""
    n = sum(len(m) for m in mats)
    out = zeros(n, n)
    off = 0
    for m in mats:
        for r, row in enumerate(m):
            out[off + r][off:off + len(m)] = row
        off += len(m)
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(mat: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Q(1) / a[r][c]
        prow = a[r] = [x * inv if x else x for x in a[r]]
        support = [j for j in range(c, cols) if prow[j]]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                row = a[i]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def nullspace(mat: Matrix) -> List[list]:
    """Basis of the right kernel, one vector per free column."""
    if not mat:
        return []
    red, pivots = rref(mat)
    cols = len(mat[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Q(0)] * cols
        vec[free] = Q(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def inverse(a: Matrix) -> Matrix:
    """Exact matrix inverse; raises ValueError on singular input."""
    n = len(a)
    aug = [list(row) + unit for row, unit in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def det(mat: Matrix):
    """Exact determinant by forward elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    result = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        result = result * a[c][c]
        inv = Q(1) / a[c][c]
        prow = a[c]
        support = [j for j in range(c, n) if prow[j]]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                row = a[i]
                for j in support:
                    row[j] = row[j] - f * prow[j]
    return result * sign


def _sparse_rows(mat: Matrix) -> List[list]:
    """mat as sparse rows: the (column, entry) pairs with entry != 0."""
    return [[(c, x) for c, x in enumerate(row) if x] for row in mat]


def triangular_order(mats: Sequence[Matrix]) -> List[int]:
    """A basis order in which every matrix of mats is upper triangular.

    Topological order of the off-diagonal nonzero pattern: a comes before b
    whenever some m[a][b] != 0, and among the indices that may come next the
    smallest is taken, so the natural order is kept when it works.
    ScopeError if the pattern has a cycle.
    """
    return _triangular_order([_sparse_rows(m) for m in mats], len(mats[0]))


def _triangular_order(sparse: Sequence[List[list]], n: int) -> List[int]:
    """triangular_order of the matrices given by their sparse rows."""
    preds = [set() for _ in range(n)]
    for m in sparse:
        for a, row in enumerate(m):
            for c, _ in row:
                if c != a:
                    preds[c].add(a)
    order: List[int] = []
    placed = set()
    while len(order) < n:
        b = next((b for b in range(n) if b not in placed and preds[b] <= placed),
                 None)
        if b is None:
            raise ScopeError("the matrices are not triangular in any common "
                             "basis order")
        order.append(b)
        placed.add(b)
    return order


def _dot(pairs, vec, zero=Q(0)):
    """sum of x * vec[c] over the (c, x) pairs of a sparse row."""
    return sum((x * vec[c] for c, x in pairs if vec[c]), zero)


def _integer_family(sparse: Sequence[List[list]]):
    """(D, rows) with M_j = rows[j] / D, or None if an entry is not rational.

    sparse holds the sparse rows of matrices M_j; rows[j] are those of
    D M_j, with integer entries, and D > 0 is the lcm of the denominators
    of every entry of the family.
    """
    if any(type(x) is not Q and type(x) is not int
           for m in sparse for row in m for _, x in row):
        return None
    d = math.lcm(*(x.denominator for m in sparse for row in m for _, x in row))
    return d, [[[(c, x.numerator * (d // x.denominator)) for c, x in row]
                for row in m] for m in sparse]


def sparse_form(mat: Matrix) -> Tuple[int, List[list]]:
    """(D, rows) with mat = rows / D, rows sparse lists of (column, entry != 0).

    A rational mat has integer entries over D the lcm of its denominators;
    any other keeps its own entries over D = 1.
    """
    rows = _sparse_rows(mat)
    d, (rows,) = _integer_family([rows]) or (1, [rows])
    return d, rows


def weight_basis_forms(mats: Sequence[Matrix]) -> List[tuple]:
    """triangular_weight_basis with each v_b as a pair (num, e), v_b = num / e.

    A rational family runs on integer forms: the family is scaled once to
    integer matrices M_j over one denominator D, so lambda_bj - lambda_aj =
    (M_j[b][b] - M_j[a][a]) / D, and each v_b is back-substituted as
    integer numerators over one column denominator e > 0, the lcm of the
    denominators of its entries.  A family with any other entry (a
    Cyclotomic) is solved in its field, each v_b over e = 1.
    """
    return _weight_basis(mats)[1]


def _weight_basis(mats: Sequence[Matrix]) -> Tuple[bool, List[tuple]]:
    """(rational, weight_basis_forms(mats)), rational if the integer path ran."""
    n = len(mats[0])
    sparse = [_sparse_rows(m) for m in mats]
    order = _triangular_order(sparse, n)
    diag = [tuple(m[b][b] for m in mats) for b in range(n)]
    family = _integer_family(sparse)
    # weights are compared by their integer forms on the integer path
    keys = diag if family is None else \
        [tuple(dict(m[b]).get(b, 0) for m in family[1]) for b in range(n)]
    firsts: List[int] = []  # the first coordinate of each weight
    label = []  # index in firsts of each coordinate's weight
    for b, key in enumerate(keys):
        k = next((k for k, c in enumerate(firsts) if keys[c] == key), len(firsts))
        if k == len(firsts):
            firsts.append(b)
        label.append(k)
    if family is None:
        cols = {b: (v, 1) for b, v in
                _field_weight_columns(sparse, diag, order, label).items()}
    else:
        cols = _integer_weight_columns(family[1], keys, order, label)
    members = [[b for b in range(n) if label[b] == k] for k in range(len(firsts))]
    return family is not None, [(diag[first], idx, [cols[b] for b in idx])
                                for first, idx in zip(firsts, members)]


def _field_weight_columns(sparse, diag, order, label) -> dict:
    """v_b per coordinate b, by back-substitution in the field of the entries."""
    n = len(diag)
    right = [[[(c, x) for c, x in row if c != a] for a, row in enumerate(m)]
             for m in sparse]
    cols = {}
    for pos, b in enumerate(order):
        lam = diag[b]
        col = [Q(0)] * n
        col[b] = Q(1)
        between = []  # (v_c, [D_j[c][b] per j]) for c in I_lambda from the row to b
        for a in reversed(order[:pos]):
            if label[a] == label[b]:
                between.append((cols[a], [_dot(r[a], col) for r in right]))
                continue
            j = next(j for j, (x, y) in enumerate(zip(lam, diag[a])) if x != y)
            acc = _dot(right[j][a], col)
            for vc, d in between:
                if vc[a] and d[j]:
                    acc -= vc[a] * d[j]
            col[a] = acc / (lam[j] - diag[a][j]) if acc else acc
        cols[b] = col
    return cols


def _integer_weight_columns(ints, diag, order, label) -> dict:
    """(num, e) per coordinate b, v_b = num / e, from the integer family.

    ints are the sparse rows of the integer matrices M_j (_integer_family)
    and diag their diagonals.  The recurrence of triangular_weight_basis
    times D e: with S = sum_c M_j[a][c] num[c] and, for c in I_lambda
    between the row and b, the integers K_c = sum_c' M_j[c][c'] num[c'] (so
    D_j[c][b] is K_c / (D e)), v_b[a] = (S - sum_c v_c[a] K_c) / (e
    (M_j[b][b] - M_j[a][a])).  When the entry needs a larger e, the column
    and its K_c are scaled up to it.
    """
    n = len(diag)
    right = [[[(c, x) for c, x in row if c != a] for a, row in enumerate(m)]
             for m in ints]
    cols = {}
    for pos, b in enumerate(order):
        lam = diag[b]
        num = [0] * n
        num[b] = e = 1
        between = []  # [num_c, e_c, [K_c per j]] for c in I_lambda from the row to b
        for a in reversed(order[:pos]):
            if label[a] == label[b]:
                between.append([*cols[a], [_dot(r[a], num, 0) for r in right]])
                continue
            da, j = diag[a], 0
            while lam[j] == da[j]:
                j += 1
            p, q = _dot(right[j][a], num, 0), 1  # the sum so far is p / q
            for nc, ec, k in between:
                if nc[a] and k[j]:
                    g = math.gcd(q, ec)
                    p, q = p * (ec // g) - nc[a] * k[j] * (q // g), q * (ec // g)
            if not p:
                continue
            r = q * (lam[j] - da[j]) * e  # v_b[a] = p / r
            g = math.gcd(p, r)
            p, r = (p // g, r // g) if r > 0 else (-p // g, -r // g)
            f = r // math.gcd(e, r)
            if f != 1:
                num = [x * f for x in num]
                for t in between:
                    t[2] = [x * f for x in t[2]]
                e *= f
            num[a] = p * (e // r)
        cols[b] = (num, e)
    return cols


def triangular_weight_basis(mats: Sequence[Matrix]) -> List[tuple]:
    """(lambda, I_lambda, V_lambda) per joint generalized weight of mats.

    mats are commuting matrices T_j, upper triangular in triangular_order
    (ScopeError if there is none).  lambda_b = (T_j[b][b])_j is the weight of
    coordinate b, I_lambda lists the b with lambda_b = lambda, and V_lambda
    lists, for b in I_lambda, the vector v_b of the joint generalized weight
    space with v_b[b] = 1 and v_b[c] = 0 for the other c in I_lambda.
    Weights are listed by their smallest coordinate, and are compared with
    ==, in order of first appearance.

    T_j V = V D_j with D_j[c][b] = (T_j v_b)[c], read at c in I_lambda, and
    row a of that identity gives, for a before b with lambda_a != lambda_b
    at some j, (lambda_bj - lambda_aj) v_b[a] = sum_{c after a} T_j[a][c]
    v_b[c] - sum_{c in I_lambda between a and b} v_c[a] D_j[c][b].  Rows go
    bottom-up, columns in the triangular order; v_b is unique, so any such j
    gives the same entry.  The vectors are solved as weight_basis_forms
    solves them (on integer forms for a rational family) and returned as
    Fractions, or as field elements for a family that is not rational.
    """
    rational, spaces = _weight_basis(mats)
    if not rational:
        return [(lam, idx, [v for v, _ in forms]) for lam, idx, forms in spaces]
    zero = Q(0)
    return [(lam, idx, [[Q(x, e) if x else zero for x in num] for num, e in forms])
            for lam, idx, forms in spaces]


def unit_triangular_inverse(a: Matrix, order: Sequence[int]) -> Matrix:
    """Exact inverse of a matrix that is unit upper triangular in a basis order.

    a[b][b] = 1 and a[r][c] = 0 whenever c comes before r in order (the
    basis of triangular_weight_basis is one).  Back-substitution, rows
    bottom-up: row r of the inverse is e_r - sum_c a[r][c] (row c), over
    the c after r.  ValueError on any other matrix.
    """
    n = len(a)
    out: List[list] = [None] * n
    for r in reversed(order):
        if a[r][r] != 1:
            raise ValueError("not unit upper triangular in the order")
        row = [Q(0)] * n
        row[r] = Q(1)
        for c, x in enumerate(a[r]):
            if c == r or not x:
                continue
            if out[c] is None:
                raise ValueError("not unit upper triangular in the order")
            for k, y in enumerate(out[c]):
                if y:
                    row[k] = row[k] - x * y
        out[r] = row
    return out


def _echelon_add(rows: List[list], pivots: List[int], vec: Sequence) -> bool:
    """Add vec to a reduced echelon span; False (and no change) if already in it.

    rows are normalized at their pivot columns, and each pivot column is zero
    in every other row.  A new vector is reduced against the rows, scaled to
    a unit pivot, and its pivot column is cleared from the older rows.
    """
    v = list(vec)
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            for j, y in enumerate(row):
                if y:
                    v[j] = v[j] - f * y
    lead = next((j for j, x in enumerate(v) if x), None)
    if lead is None:
        return False
    inv = Q(1) / v[lead]
    v = [x * inv if x else x for x in v]
    support = [j for j, x in enumerate(v) if x]
    for row in rows:
        f = row[lead]
        if f:
            for j in support:
                row[j] = row[j] - f * v[j]
    rows.append(v)
    pivots.append(lead)
    return True


def _flatten(mat: Matrix) -> list:
    return [x for row in mat for x in row]


def algebra_closure(generators: List[Matrix]) -> List[Matrix]:
    """Basis of the unital associative algebra generated by square matrices.

    Grows the span by multiplying basis elements against the generators
    until stable; the returned matrices are linearly independent.  The span
    is kept as one reduced echelon form, so each candidate is reduced once.
    """
    basis: List[Matrix] = []
    span_rows: List[list] = []
    span_pivots: List[int] = []
    queue = [identity(len(generators[0]))] + list(generators)
    while queue:
        cand = queue.pop()
        if not _echelon_add(span_rows, span_pivots, _flatten(cand)):
            continue
        basis.append(cand)
        for g in generators:
            queue.append(mat_mul(cand, g))
            queue.append(mat_mul(g, cand))
    return basis


def intertwiner_space(left: List[Matrix], right: List[Matrix]) -> List[Matrix]:
    """Basis of {X : L X = X R for each pair (L, R) of left and right}.

    left and right are square matrices paired in order, of sizes p and q;
    X is p x q.  The entries of L X - X R are linear in the p q entries of
    X, one equation each, and the basis is the nullspace of that system.
    """
    p, q = len(left[0]), len(right[0])
    rows = []
    for lmat, rmat in zip(left, right):
        rcols = _sparse_rows(transpose(rmat))
        lrows = _sparse_rows(lmat)
        for i in range(p):
            for j in range(q):
                # (X R)[i][j] - (L X)[i][j], over X[i][k] and X[k][j]
                eq: dict = {}
                for k, x in rcols[j]:
                    c = i * q + k
                    eq[c] = eq[c] + x if c in eq else x
                for k, x in lrows[i]:
                    c = k * q + j
                    eq[c] = eq[c] - x if c in eq else -x
                if any(eq.values()):
                    row = [Q(0)] * (p * q)
                    for c, x in eq.items():
                        row[c] = x
                    rows.append(row)
    # a zero row stands for a system with no nonzero equation
    null = nullspace(rows or [[Q(0)] * (p * q)])
    return [[v[i * q:(i + 1) * q] for i in range(p)] for v in null]


def wedderburn_simple_count(basis: List[Matrix]) -> dict:
    """Count simple summands of the semisimple quotient of a matrix algebra.

    basis must be a basis b_1..b_m of a unital matrix algebra A, closed
    under products (algebra_closure builds one from generators; the
    commutant intertwiner_space(gens, gens) is one already).  With the Gram
    matrix G_ik = tr(b_i b_k) and T_(j<k),i = tr(b_i [b_j, b_k]), rad A is the
    kernel of G (Dickson's criterion, characteristic 0).  Since
    tr([x, b_j] b_k) = tr(x [b_j, b_k]), [x, A] lies in rad exactly when
    tr(x c) = 0 for every commutator c, and that space contains rad.  So
    the center of A/rad has dimension rank G - rank T; over a splitting
    field it is the number of simple blocks.
    """
    m = len(basis)
    rows = [_sparse_rows(b) for b in basis]
    entries = [{(r, c): x for r, row in enumerate(sp) for c, x in row} for sp in rows]

    def product(j: int, k: int) -> dict:
        # b_j b_k as {(r, t): entry}, from the sparse rows
        out: dict = {}
        for r, row in enumerate(rows[j]):
            for s, x in row:
                for t, y in rows[k][s]:
                    out[r, t] = out[r, t] + x * y if (r, t) in out else x * y
        return out

    def trace_form(c: dict) -> list:
        # tr(b_i c) = sum over (s, r) of c[s][r] b_i[r][s], for every i
        return [sum((x * e[r, s] for (s, r), x in c.items() if x and (r, s) in e), Q(0))
                for e in entries]

    rank_g = rank([trace_form(e) for e in entries])
    t_rows = []
    for j in range(m):
        for k in range(j + 1, m):
            # tr(b_i b_j b_k) - tr(b_i b_k b_j) = tr(b_i [b_j, b_k])
            c = product(j, k)
            for key, y in product(k, j).items():
                c[key] = c[key] - y if key in c else -y
            t_rows.append(trace_form(c))
    rank_t = rank(t_rows)
    return {
        "algebra_dim": m,
        "radical_dim": m - rank_g,
        "center_dim": rank_g - rank_t,
        "simple_count": rank_g - rank_t,
    }
