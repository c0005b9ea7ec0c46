"""Irreducible root data: pairings, finite Weyl group, derived constants.

Scope: finite, irreducible and simply-laced.  A Cartan matrix outside it is
refused with ValueError before the Weyl group is enumerated.

Conventions: roots are stored in the simple-root basis (integer vectors),
coroots in the simple-coroot basis.  Weights are stored by their coordinates
lambda_j = (lambda : omega_j-vee), i.e. also in the simple-root basis; this
makes the pairing with fundamental coweights a direct read.

Each w of the enumerated Weyl group carries two linear maps, compiled once
from its integer matrix: w_maps[w] on root coordinates (roots, weights,
coweights in coroot coordinates, lattice keys) and w_coweight_maps[w] on
omega-vee coordinates (the exponents of y-monomials), with the integer
matrix w_coweight_matrices[w].  Every Weyl action of the package applies
these maps; a key is moved by one tuple of integer sums, with no loop.
"""
from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict, List, Tuple

from . import linalg

Vector = Tuple[Q, ...]
IntVector = Tuple[int, ...]

__all__ = ["RootDatum", "type_a", "from_cartan_matrix"]


class RootDatum:
    """An irreducible root datum with its finite Weyl group fully enumerated."""

    def __init__(self, cartan: Tuple[Tuple[int, ...], ...], label: str = "custom"):
        _check_cartan(cartan)
        self.label = label
        self.rank = len(cartan)
        self.cartan = cartan  # cartan[i][j] = (alpha_j : alpha_i-vee)
        # tables derived from this datum by other modules, keyed by a tag
        # and their arguments; freed with the datum
        self.memo: dict = {}
        inv = linalg.inverse([[Q(x) for x in row] for row in cartan])
        self._fundamental_coweights = [tuple(row) for row in inv]
        self._build_weyl_group()
        self._build_roots()

    # -- pairing and basic linear maps ------------------------------------
    def pairing(self, lam: Vector, lam_vee: Vector) -> Q:
        """(lambda : lambda-vee) for lambda in root coords, lambda-vee in coroot coords."""
        if len(lam) != self.rank or len(lam_vee) != self.rank:
            raise ValueError("coordinate length mismatch")
        total = Q(0)
        for i in range(self.rank):
            if lam_vee[i]:
                row = self.cartan[i]
                total += lam_vee[i] * sum(row[j] * lam[j] for j in range(self.rank) if lam[j])
        return total

    def coroot_of(self, beta: IntVector) -> IntVector:
        """The coroot beta-vee of a root beta (simply-laced scope: same coordinates)."""
        if beta not in self._coroot_table:
            raise ValueError("not a root")
        return self._coroot_table[beta]

    # -- Weyl group --------------------------------------------------------
    def _simple_reflection_matrix(self, i: int) -> Tuple[IntVector, ...]:
        # columns are images of simple roots: s_i alpha_j = alpha_j - a_ij alpha_i
        r = self.rank
        cols = []
        for j in range(r):
            col = [0] * r
            col[j] = 1
            col[i] -= self.cartan[i][j]
            cols.append(tuple(col))
        return tuple(cols)

    def _build_weyl_group(self):
        r = self.rank
        ident = tuple(tuple(1 if i == j else 0 for i in range(r)) for j in range(r))
        gens = [self._simple_reflection_matrix(i) for i in range(r)]
        elems: List[Tuple[IntVector, ...]] = [ident]
        index: Dict[Tuple[IntVector, ...], int] = {ident: 0}
        words: List[Tuple[int, ...]] = [()]
        # left[i][e] is the index of s_i e; element a > 0 is s_i e for the
        # (i, e) = step[a] that found it, with e found before a
        left: List[Dict[int, int]] = [{} for _ in range(r)]
        step = [None]
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                for i in range(r):
                    m = _mat_mul(gens[i], elems[e])
                    if m not in index:
                        index[m] = len(elems)
                        elems.append(m)
                        words.append((i,) + words[e])
                        step.append((i, e))
                        nxt.append(index[m])
                    left[i][e] = index[m]
            frontier = nxt
        self.w_elements = elems  # matrix of w acting on root coordinates
        self.w_index = index
        self.w_words = words  # a reduced word s_{i1}...s_{ik} for each element
        self.w_order = len(elems)
        self.w_simple = [index[g] for g in gens]
        self.w_identity = 0
        self.w_maps = _linear_maps(elems)
        # multiplication and inverse tables: the row of a = s_i e is the
        # row of e moved by left multiplication with s_i
        self.w_mul = [list(range(len(elems)))]
        for i, e in step[1:]:
            self.w_mul.append([left[i][x] for x in self.w_mul[e]])
        self.w_inv = [row.index(0) for row in self.w_mul]
        # w on the coweight lattice in the omega-vee basis: coordinate i of
        # w omega_j-vee is (alpha_i : w omega_j-vee) = (w^-1 alpha_i :
        # omega_j-vee), coordinate j of w^-1 alpha_i, so the matrix is the
        # transpose of w^-1's on root coordinates
        self.w_coweight_matrices = [
            tuple(tuple(self.w_elements[self.w_inv[w]][i][j] for i in range(r))
                  for j in range(r))
            for w in range(self.w_order)]
        self.w_coweight_maps = _linear_maps(self.w_coweight_matrices)

    def w_length(self, w: int) -> int:
        return len(self.w_words[w])

    def w_act_root(self, w: int, beta: IntVector) -> IntVector:
        """w(beta) for beta in root coordinates, through the map w_maps[w]."""
        return self.w_maps[w](beta)

    def w_act_weight(self, w: int, lam: Vector) -> Vector:
        """w(lambda) for lambda in root coordinates, with Fraction coordinates."""
        out = self.w_maps[w](lam)
        return out if all(type(x) is Q for x in out) else tuple(map(Q, out))

    def w_act_coweight(self, w: int, lam_vee: Vector) -> Vector:
        """w(lambda-vee) for a coweight in coroot coordinates (simply-laced)."""
        return self.w_act_weight(w, lam_vee)

    def reflection_index(self, beta: IntVector) -> int:
        """The index in W of the reflection s_beta."""
        if beta not in self._reflection_table:
            raise ValueError("not a root")
        return self._reflection_table[beta]

    # -- roots -------------------------------------------------------------
    def _build_roots(self):
        r = self.rank
        simple = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
        roots = set()
        for i in range(r):
            for w in range(self.w_order):
                roots.add(self.w_act_root(w, simple[i]))
        self.roots = sorted(roots)
        self.positive_roots = sorted(b for b in roots if _is_positive(b))
        self.simple_roots = simple
        # simply-laced scope: coroot coordinates equal root coordinates
        self._coroot_table = {b: b for b in roots}
        self.positive_coroots = [self.coroot_of(b) for b in self.positive_roots]
        heights = {b: sum(b) for b in self.positive_roots}
        self.theta = max(self.positive_roots, key=lambda b: (heights[b], b))
        self.theta_vee = self.coroot_of(self.theta)
        self.rho = tuple(Q(sum(b[i] for b in self.positive_roots), 2) for i in range(r))
        self.coxeter_number = sum(self.theta) + 1
        # reflection table: s_beta as an element of W, read from its integer
        # matrix, whose column j is alpha_j - (alpha_j : beta-vee) beta
        self._reflection_table = {}
        for beta in roots:
            bvee = self.coroot_of(beta)
            pair = [sum(bvee[i] * self.cartan[i][j] for i in range(r)) for j in range(r)]
            self._reflection_table[beta] = self.w_index[tuple(
                tuple(simple[j][i] - pair[j] * beta[i] for i in range(r))
                for j in range(r))]

    def cartan_pairing(self, beta: IntVector, lam_vee: Vector) -> Q:
        return self.pairing(tuple(Q(b) for b in beta), lam_vee)

    # -- named weights -----------------------------------------------------
    def fundamental_coweight(self, j: int) -> Vector:
        """omega_j-vee in coroot coordinates (row of the inverse Cartan matrix)."""
        return self._fundamental_coweights[j]

    def reflect_weight(self, lam: Vector, beta: IntVector) -> Vector:
        """s_beta(lambda) = lambda - (lambda:beta-vee) beta."""
        bvee = tuple(Q(c) for c in self.coroot_of(beta))
        c = self.pairing(lam, bvee)
        return tuple(lam[i] - c * beta[i] for i in range(self.rank))

    def coroot_level_set(self, j: int) -> List[IntVector]:
        """{beta-vee : (rho : beta-vee) = j} over all coroots."""
        out = []
        for beta in self.roots:
            bvee = tuple(Q(c) for c in self.coroot_of(beta))
            if self.pairing(self.rho, bvee) == j:
                out.append(self.coroot_of(beta))
        return sorted(out)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [list(b) for b in self.positive_roots],
            "theta": list(self.theta),
            "rho": [str(c) for c in self.rho],
            "coxeter_number": self.coxeter_number,
            "weyl_order": self.w_order,
        }

    def __repr__(self):
        return f"RootDatum({self.label})"


def _check_cartan(cartan) -> None:
    """Refuse a Cartan matrix outside the finite, irreducible, simply-laced scope.

    Simply-laced: symmetric, 2 on the diagonal, off-diagonal entries in
    {0, -1}.  Irreducible: the Dynkin graph is connected.  Finite: the matrix
    is positive definite, i.e. every leading principal minor is positive
    (otherwise W is infinite and could not be enumerated).
    """
    r = len(cartan)
    if not r or any(len(row) != r for row in cartan):
        raise ValueError("Cartan matrix must be square and nonempty")
    for i in range(r):
        for j in range(r):
            a = cartan[i][j]
            if (a != 2) if i == j else (a != cartan[j][i] or a not in (0, -1)):
                raise ValueError("Cartan matrix is not simply-laced (2 on the "
                                 "diagonal, symmetric, off-diagonal entries 0 or -1)")
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(r):
            if cartan[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != r:
        raise ValueError("Cartan matrix is not irreducible (disconnected Dynkin graph)")
    if any(linalg.det([row[:k] for row in cartan[:k]]) <= 0 for k in range(1, r + 1)):
        raise ValueError("Cartan matrix is not positive definite (infinite Weyl group)")


def _mat_mul(a, b):
    """Column-convention product: (a*b) column j = a applied to b's column j."""
    r = len(a)
    cols = []
    for j in range(r):
        col = [0] * r
        for k in range(r):
            c = b[j][k]
            if c:
                for i in range(r):
                    col[i] += c * a[k][i]
        cols.append(tuple(col))
    return tuple(cols)


def _linear_maps(mats) -> list:
    """k -> M k for each integer matrix M (given by its columns), compiled.

    Each map is one lambda whose body is the tuple of sums of the k[j] with
    their integer coefficients, with no loop; k may have int or Fraction
    coordinates.  The maps of all the matrices are compiled at once.
    """
    def term(c, j):
        return ("-" if c < 0 else "+") + ("" if abs(c) == 1 else f"{abs(c)}*") + f"k[{j}]"

    def row(cols, i):
        terms = (term(col[i], j) for j, col in enumerate(cols) if col[i])
        return " ".join(terms).lstrip("+")

    lambdas = ", ".join(
        "lambda k: (%s,)" % ", ".join(row(cols, i) for i in range(len(cols)))
        for cols in mats)
    return list(eval(f"({lambdas},)", {"__builtins__": {}}))


def _is_positive(beta) -> bool:
    return all(c >= 0 for c in beta) and any(beta)


def type_a(r: int) -> RootDatum:
    """Built-in A_r constructor (r <= 4 exercised in tests)."""
    if r < 1:
        raise ValueError("rank must be positive")
    cartan = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r))
        for i in range(r)
    )
    return RootDatum(cartan, label=f"A{r}")


def from_cartan_matrix(cartan, label: str = "custom") -> RootDatum:
    return RootDatum(tuple(tuple(int(x) for x in row) for row in cartan), label=label)
