"""The benchmark's workloads: inputs from the seed, one op per input, the gate.

Every op calls the public dahakz API and checks its result against the
bounds of the acceptance suite (`tests/test_acceptance.py`): numeric
residuals and identification distances below 1e-8, b(3/2) = 3 pi / 8 to
1e-16, the Sylvester residual of the Frobenius series below 1e-20, and
exact equality for the exact algebra.  An op that raises or misses a check
counts as failed; it does not stop the run.

Layer functions are called through their modules (`hecke.daha_mul`, not
a bare `daha_mul`), so that the wrappers of perfbench/layers.py see the
benchmark's own calls.  Why each workload exists is in perfbench/README.md.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction as Q

import mpmath

import dahakz.affine as aw
import dahakz.arrangements as arr
import dahakz.cli as cli
import dahakz.hecke as hecke
import dahakz.kz as kz
import dahakz.linalg as la
import dahakz.modules as mods
from dahakz.affine import HEART, HeckeParams, TorusPoint
from dahakz.hecke import AhaElement, DahaElement
from dahakz.rings import XiPolynomial, x_monomial, xi_variable, y_monomial
from dahakz.rootdata import type_a

D1 = type_a(1)
D2 = type_a(2)
P1 = HeckeParams.degenerate(Q(1, 2))
P2 = HeckeParams.degenerate(Q(1, 3))
A2 = HeckeParams.from_exponent(Q(1, 3))
TOL = mpmath.mpf("1e-8")
# an exact check has residual 0; its digits are reported as this cap
EXACT_DIGITS = 100


@dataclass
class Outcome:
    ok: bool
    residual: object  # largest residual the op checked (0 when exact)
    digest: str       # hash of the checked outputs, bit for bit


def _canon(x):
    """Exact, address-free form of an output, for comparing results bit for bit."""
    if isinstance(x, mpmath.mpf):
        return ("f", x._mpf_)
    if isinstance(x, mpmath.mpc):
        return ("c", x._mpc_)
    if isinstance(x, mpmath.matrix):
        return ("m", x.rows, x.cols, tuple(_canon(e) for e in x))
    if isinstance(x, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_canon(e) for e in x)
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(x))
    if x is None or isinstance(x, (bool, int, Q, str)):
        return x
    raise TypeError(f"no exact form for {type(x).__name__}")


def _digest(outputs) -> str:
    return hashlib.sha256(repr(_canon(outputs)).encode()).hexdigest()[:16]


# -- a1-thm41: Theorem 4.1 identification (criterion 7, A1 Remark case) ----------


def thm41_inputs(seed: int) -> list:
    return [{"lam0": [Q(1, 4)], "h0": Q(1, 2), "word": [HEART],
             "prec": 128, "order": 16, "rtol": 1e-9}]


def thm41_op(inp) -> Outcome:
    out = kz.theorem41_check(D1, P1, tuple(inp["lam0"]), inp["h0"], inp["word"],
                             prec=inp["prec"], order=inp["order"],
                             rtol=inp["rtol"])
    ell0 = TorusPoint.from_exponent(D1, tuple(inp["lam0"]))
    ok = (out["identified_w"] == 0
          and out["identified_point"] == ell0.values
          and all(m["candidate"] == 0 for m in out["identify"]["matches"])
          and out["prediction_match"] is True)
    residual = max([out["distance"], *out["residuals"].values()])
    rep = out["rep"]
    digest = _digest([out["identified_w"], out["distance"], out["residuals"],
                      out["predicted_w"], rep["Y"], rep["T"]])
    return Outcome(bool(ok and residual < TOL), residual, digest)


# -- a2-series: the Frobenius stage of the A2 deep fiber (criteria 6, 7, 10) -------


def a2_series_inputs(seed: int) -> list:
    g = aw.element_from_word(D2, [0, 1, 0, HEART])
    mu0 = tuple(aw.act_weight(D2, g, (Q(1, 5), Q(1, 7))))
    return [{"mu0": list(mu0), "prec": 128, "order": 8}]


def a2_series_op(inp) -> Outcome:
    fiber = mods.degenerate_fiber(D2, P2, tuple(inp["mu0"]))
    problem = kz.trig_problem(D2, P2, fiber, prec=inp["prec"])
    with mpmath.workprec(inp["prec"]):
        sol = kz.frobenius_series(problem, inp["order"])
    residual = sol.residual
    digest = _digest([residual, sorted(sol.coeffs.items())])
    return Outcome(bool(residual < mpmath.mpf("1e-20")), residual, digest)


# -- a1-gamma-sweep: rank-one structure constants vs Gamma (criterion 5) ------------

# four of criterion 5's ten off-pole points: the b(3/2) special case and
# the three cheapest.  The ten differ up to 3.5x in cost, so a seeded draw
# among them would move op_s by more than any bound; the seed orders these.
# With four, the median op_s averages the two middle ones.
GAMMA_POINTS = (Q(-3, 4), Q(3, 8), Q(-1, 8), Q(1, 8))


def gamma_inputs(seed: int) -> list:
    points = list(GAMMA_POINTS)
    random.Random(seed).shuffle(points)
    return [{"mu0": [mu], "prec": 256, "order": 20, "rtol": 1e-10}
            for mu in points]


def gamma_op(inp) -> Outcome:
    prec = inp["prec"]
    with mpmath.workprec(prec):
        out = kz.rank_one_check(D1, P1, tuple(inp["mu0"]), prec=prec,
                                order=inp["order"], rtol=inp["rtol"])
        residuals = [out["residual_a"], out["residual_b"]]
        ok = all(r < TOL for r in residuals)
        if inp["mu0"] == [Q(-3, 4)]:
            special = abs(out["oracle_b"] - 3 * mpmath.pi / 8)
            ok = ok and special < mpmath.mpf("1e-16")
            residuals.append(special)
    rep = out["rep"]
    digest = _digest([out["engine_a"], out["engine_b"], out["oracle_a"],
                      out["oracle_b"], rep["Y"], rep["T"]])
    return Outcome(bool(ok), max(residuals), digest)


# -- a1-parabolic-jets: parabolic fibers with jets, n = 1 then 2 (criterion 8) -----


def _xi_has_jordan_block(fiber) -> bool:
    """Some xi_j is not diagonalizable on the fiber (so neither is A_0)."""
    n = fiber.dimension
    for j in range(fiber.datum.rank):
        m = fiber.xi_matrix(j)
        wts = [fiber.weight_of(b)[j] for b in range(n)]
        for lam in set(wts):
            shifted = [[m[r][c] - (lam if r == c else 0) for c in range(n)]
                       for r in range(n)]
            if la.rank(shifted) > n - wts.count(lam):
                return True
    return False


def parabolic_inputs(seed: int) -> list:
    mu0 = (Q(1, 4),)
    points = sorted({tuple(D1.w_act_weight(w, mu0)) for w in range(D1.w_order)})
    jets = {n: _xi_has_jordan_block(kz.parabolic_fiber(D1, P1, (0,), points, n))
            for n in (1, 2)}
    return [{"J": [0], "mu0": list(mu0), "n": [1, 2], "prec": 128, "order": 16,
             "rtol": 1e-9, "jordan_blocks": jets}]


def parabolic_op(inp) -> Outcome:
    mu0 = tuple(inp["mu0"])
    orbit = sorted({tuple(D1.w_act_weight(w, mu0)) for w in range(D1.w_order)})
    # the workload is meant to run the non-diagonalizable case at n = 2
    ok = inp["jordan_blocks"] == {1: False, 2: True}
    residuals, dims, outputs = [], {}, []
    for n in inp["n"]:
        out = kz.parabolic_identify(D1, P1, tuple(inp["J"]), mu0, n=n,
                                    prec=inp["prec"], order=inp["order"],
                                    rtol=inp["rtol"])
        dims[n] = out["dimension"]
        residuals += [out["t_cyclic_residual"], out["jet_residual"]]
        ok = ok and out["ok"] and out["cyclic"] and out["points"] == orbit
        if n == 1:
            ok = ok and out["spectrum"]["ok"]
            residuals.append(out["spectrum"]["worst"])
        outputs += [out["t_cyclic_residual"], out["jet_residual"],
                    out["rep"]["Y"], out["rep"]["T"]]
    residual = max(residuals)
    ok = ok and dims == {1: 2, 2: 4} and residual < TOL
    return Outcome(bool(ok), residual, _digest([dims, outputs]))


# -- exact-algebra: the exact calls of criteria 1-4 and 9 ------------------------

# rep-check samples: fixed shapes (Weyl word, xi exponents), seeded scalars.
# The cost of a rep check grows steeply with the xi-degree of the pair, so a
# seeded shape would move op_s by far more than any bound.
REP_SHAPES = [([0], (0,)), ([HEART], (1,)), ([1], (0, 1)), ([HEART], ()),
              ([HEART], (1,)), ([0], (0,)), ([HEART], ()), ([1], (0, 1))]


def _daha_spec(rng):
    """One random element in the distribution of criterion 3."""
    word = [rng.choice([0, 1, HEART]) for _ in range(rng.randrange(0, 3))]
    return {"word": word, "coeff": Q(rng.randrange(-2, 3)),
            "xi": [j for j in range(2) if rng.random() < 0.5]}


def _aha_spec(rng):
    return {"w": rng.randrange(D2.w_order),
            "y": [rng.randrange(-1, 2) for _ in range(2)]}


def _daha(spec) -> DahaElement:
    elem = DahaElement.from_group(D2, P2, aw.element_from_word(D2, spec["word"]))
    poly = XiPolynomial.constant(spec["coeff"], 2)
    for j in spec["xi"]:
        poly = poly * xi_variable(D2, j)
    if poly:
        elem = elem * DahaElement.from_poly(D2, P2, poly)
    return elem if elem.terms else DahaElement.one(D2, P2)


def _aha(spec) -> AhaElement:
    return hecke.aha_mul(
        AhaElement.from_t(D2, A2, spec["w"]),
        AhaElement.from_y(D2, A2, y_monomial(D2, tuple(spec["y"]))))


def exact_inputs(seed: int) -> list:
    rng = random.Random(seed)
    triples = [([_daha_spec(rng) for _ in range(3)],
                [_aha_spec(rng) for _ in range(3)]) for _ in range(25)]
    samples = [{"word": word, "xi": list(xi),
                "coeff": Q(rng.choice([-3, -2, -1, 1, 2, 3]),
                           rng.choice([1, 2, 3, 5]))}
               for word, xi in REP_SHAPES]
    return [{"triples": triples, "rep_samples": samples, "rep_degree": 5,
             "window": 12}]


def _char_set(label, window, census):
    weights = arr.simple_character(D1, (Q(1, 4),), Q(1, 2), label, window,
                                   census)
    return {int(4 * Q(w[0])) for w in weights}


def _criterion_1():
    census = arr.domain_census(D1, (Q(1, 4),), Q(1, 2))
    sets = {}
    for name, word in (("e", []), ("heart", [HEART]), ("s1", [0])):
        dom = arr.domain_of_alcove(D1, census, aw.element_from_word(D1, word))
        label = dom["label"] if dom["label"] is not None else dom["id"]
        sets[name] = {j for j in _char_set(label, 22, census) if abs(j) <= 19}
    expect = {"e": {1},
              "heart": {j for j in (3, 7, 11, 15, 19) for j in (j, -j)},
              "s1": {-1} | {j for j in (5, 9, 13, 17) for j in (j, -j)}}
    return len(census["domains"]) == 3 and sets == expect, sets


def _criterion_2():
    c1 = arr.domain_census(D1, (Q(1, 4),), Q(1, 2))
    c2 = arr.domain_census(D2, tuple(c / 3 for c in D2.rho), Q(1, 3))
    got = (len(c1["domains"]), sum(d["bounded"] for d in c1["domains"]),
           len(c2["domains"]), sum(d["bounded"] for d in c2["domains"]))
    return got == (3, 1, 7, 1), got


def _criterion_3(inp):
    dmul, amul = hecke.daha_mul, hecke.aha_mul
    ok = True
    for dspecs, aspecs in inp["triples"]:
        a, b, c = (_daha(s) for s in dspecs)
        ok = ok and dmul(dmul(a, b), c) == dmul(a, dmul(b, c))
        x, y, z = (_aha(s) for s in aspecs)
        ok = ok and amul(amul(x, y), z) == amul(x, amul(y, z))

    def dprod(word):
        out = DahaElement.one(D2, P2)
        for i in word:
            out = dmul(out, DahaElement.from_group(
                D2, P2, aw.simple_reflection(D2, i)))
        return out

    def aprod(word):
        out = AhaElement.one(D2, A2)
        for i in word:
            out = amul(out, AhaElement.from_t(D2, A2, D2.w_simple[i]))
        return out

    for w1, w2 in (([0, 1, 0], [1, 0, 1]), ([0, HEART, 0], [HEART, 0, HEART]),
                   ([1, HEART, 1], [HEART, 1, HEART])):
        ok = ok and dprod(w1) == dprod(w2)
    ok = ok and aprod([0, 1, 0]) == aprod([1, 0, 1])
    rep = hecke.polynomial_rep_check(
        D2, P2, [_daha(s) for s in inp["rep_samples"]], degree=inp["rep_degree"])
    ok = ok and rep["failures"] == 0
    dunkl = hecke.dunkl_apply
    for a in range(-2, 3):
        for b in range(-2, 3):
            if abs(a) + abs(b) > 5:
                continue
            f = x_monomial(D2, (a, b))
            ok = ok and (dunkl(D2, P2, 0, dunkl(D2, P2, 1, f))
                         == dunkl(D2, P2, 1, dunkl(D2, P2, 0, f)))
    return ok, rep


def _criterion_4(window):
    s1 = aw.simple_reflection(D1, 0)
    wall = mods.intertwiner_matrix(D1, P1, s1, (Q(1, 4),), window=window)
    off = mods.intertwiner_matrix(D1, P1, s1, (Q(3, 4),), window=window)
    gallery = mods.intertwiner_matrix(D1, P1, aw.element_from_word(D1, [HEART, 0]),
                                      (Q(7, 4),), window=window)
    letter = mods.invertibility(D1, P1, [HEART, 0], (Q(7, 4),))
    dets = [b["det"] for m in (off, gallery) for b in m["blocks"].values()]
    ok = (wall["singular"] and not off["singular"] and not gallery["singular"]
          and all(d != 0 for d in dets) and letter["invertible"])
    return ok, dets


def exact_op(inp) -> Outcome:
    ok1, sets = _criterion_1()
    ok2, census = _criterion_2()
    ok3, rep = _criterion_3(inp)
    ok4, dets = _criterion_4(inp["window"])
    schur = cli.schur_example(D1, HeckeParams.from_exponent(Q(1, 2)), n=2)
    ok = ok1 and ok2 and ok3 and ok4 and schur["simple_count"] == 3
    digest = _digest([sets, census, ok3, rep, dets, schur])
    return Outcome(bool(ok), 0, digest)


WORKLOADS = {
    "a1-thm41": (thm41_inputs, thm41_op),
    "a2-series": (a2_series_inputs, a2_series_op),
    "a1-gamma-sweep": (gamma_inputs, gamma_op),
    "a1-parabolic-jets": (parabolic_inputs, parabolic_op),
    "exact-algebra": (exact_inputs, exact_op),
}


def describe(inputs) -> list:
    """The inputs as JSON-ready data, rationals as strings.

    Words are lists of letters; the affine letter is dahakz.affine.HEART.
    """
    def plain(x):
        if isinstance(x, Q):
            return str(x)
        if isinstance(x, dict):
            return {str(k): plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(e) for e in x]
        return x
    return plain(inputs)
