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
by back-substitution too.

Matrix algebras are given by a basis: algebra_closure and commutant_basis
build one, and wedderburn_simple_count counts the simple summands of
A/rad A as rank G - rank T, two ranks of trace forms (G the Gram matrix
tr(b_i b_k), T the traces tr(b_i [b_j, b_k]) against commutators).
"""

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


def triangular_order(mats: Sequence[Matrix]) -> List[int]:
    """A basis order in which every matrix of mats is upper triangular.

    Topological order of the off-diagonal nonzero pattern: a comes before b
    whenever some m[a][b] != 0, and among the indices that may come next the
    smallest is taken, so the natural order is kept when it works.
    ScopeError if the pattern has a cycle.
    """
    n = len(mats[0])
    preds = [{c for m in mats for c in range(n) if c != b and m[c][b]}
             for b in range(n)]
    order: List[int] = []
    while len(order) < n:
        placed = set(order)
        b = next((b for b in range(n) if b not in placed and preds[b] <= placed),
                 None)
        if b is None:
            raise ScopeError("the matrices are not triangular in any common "
                             "basis order")
        order.append(b)
    return order


def _dot(pairs, vec):
    """sum of x * vec[c] over the (c, x) pairs of a sparse row."""
    return sum((x * vec[c] for c, x in pairs if vec[c]), Q(0))


def triangular_weight_basis(mats: Sequence[Matrix]) -> List[tuple]:
    """(lambda, I_lambda, V_lambda) per joint generalized weight of mats.

    mats are commuting matrices T_j, upper triangular in triangular_order
    (ScopeError if there is none).  lambda_b = (T_j[b][b])_j is the weight of
    coordinate b, I_lambda lists the b with lambda_b = lambda, and V_lambda
    lists, for b in I_lambda, the vector v_b of the joint generalized weight
    space with v_b[b] = 1 and v_b[c] = 0 for the other c in I_lambda.
    Weights are listed by their smallest coordinate, and are compared with
    ==, never hashed (a Cyclotomic hashes by its field).

    T_j V = V D_j with D_j[c][b] = (T_j v_b)[c], read at c in I_lambda, and
    row a of that identity gives, for a before b with lambda_a != lambda_b
    at some j, (lambda_bj - lambda_aj) v_b[a] = sum_{c after a} T_j[a][c]
    v_b[c] - sum_{c in I_lambda between a and b} v_c[a] D_j[c][b].  Rows go
    bottom-up, columns in the triangular order; v_b is unique, so any such j
    gives the same entry.
    """
    n = len(mats[0])
    order = triangular_order(mats)
    diag = [tuple(m[b][b] for m in mats) for b in range(n)]
    weights: List[tuple] = []
    label = []  # index in weights of each coordinate's weight
    for lam in diag:
        k = next((k for k, mu in enumerate(weights) if mu == lam), len(weights))
        if k == len(weights):
            weights.append(lam)
        label.append(k)
    right = [[[(c, m[a][c]) for c in range(n) if c != a and m[a][c]]
              for a in range(n)] for m in mats]
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
    members = [[b for b in range(n) if label[b] == k] for k in range(len(weights))]
    return [(lam, idx, [cols[b] for b in idx])
            for lam, idx in zip(weights, members)]


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


def commutant_basis(generators: List[Matrix]) -> List[Matrix]:
    """Basis of {X : XA = AX for every generator A}."""
    n = len(generators[0])
    rows = []
    for a in generators:
        for i in range(n):
            for j in range(n):
                row = [Q(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] = row[i * n + k] + a[k][j]
                    row[k * n + j] = row[k * n + j] - a[i][k]
                rows.append(row)
    return [[v[i * n:(i + 1) * n] for i in range(n)] for v in nullspace(rows)]


def wedderburn_simple_count(basis: List[Matrix]) -> dict:
    """Count simple summands of the semisimple quotient of a matrix algebra.

    basis must be a basis b_1..b_m of a unital matrix algebra A, closed
    under products (algebra_closure builds one from generators; a
    commutant_basis is one already).  With the Gram matrix
    G_ik = tr(b_i b_k) and T_(j<k),i = tr(b_i [b_j, b_k]), rad A is the
    kernel of G (Dickson's criterion, characteristic 0).  Since
    tr([x, b_j] b_k) = tr(x [b_j, b_k]), [x, A] lies in rad exactly when
    tr(x c) = 0 for every commutator c, and that space contains rad.  So
    the center of A/rad has dimension rank G - rank T; over a splitting
    field it is the number of simple blocks.
    """
    m = len(basis)
    sparse = [[(k, x) for k, x in enumerate(_flatten(b)) if x] for b in basis]

    def trace_form(c: Matrix) -> list:
        # tr(b_i c) = sum over (r, s) of b_i[r][s] c[s][r], for every i
        ct = _flatten(transpose(c))
        return [_dot(pairs, ct) for pairs in sparse]

    rank_g = rank([trace_form(b) for b in basis])
    rank_t = rank([trace_form(mat_sub(mat_mul(basis[j], basis[k]),
                                      mat_mul(basis[k], basis[j])))
                   for j in range(m) for k in range(j + 1, m)])
    return {
        "algebra_dim": m,
        "radical_dim": m - rank_g,
        "center_dim": rank_g - rank_t,
        "simple_count": rank_g - rank_t,
    }
