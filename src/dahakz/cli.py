"""Batch front-end: every computation as a subcommand with reproducible JSON.

One JSON document per run, with the effective configuration echoed so the
output is a self-contained record.  Exact rationals are serialized as "p/q"
strings and complex numbers as [re, im] strings at full working precision;
no floats round-trip through the text layer.  Exit codes: 0 ok, 2 config
error, 3 scope error, 4 tolerance failure.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import random
import re
import sys
from fractions import Fraction as Q
from typing import List

import mpmath

from . import affine as aw
from . import arrangements as arr
from . import kz
from . import modules as mods
from .errors import ConfigError, ScopeError, ToleranceError
from .hecke import (AhaElement, DahaElement, _laurent_monomials, aha_mul, daha_mul,
                    dunkl_apply, polynomial_rep_check)
from .rings import XiPolynomial, x_monomial, xi_variable, y_monomial
from .rootdata import RootDatum, type_a
from .scalars import Cyclotomic

SCHEMA = "dahakz/1"

DEFAULTS = {
    "type": "A1",
    "h": "1/2",
    "h0": "1/2",
    "lam": "1/4",
    "lam0": None,
    "mu0": None,
    "point": None,
    "window": "6",
    "radius": "3",
    "k": None,
    "domain": "bounded",
    "degree": "3",
    "samples": "40",
    "n": "1",
    "word": "",
    "J": "",
    "side": "degenerate",
    "matrix": None,
    "a": None,
    "b": None,
    "prec": "256",
    "order": "18",
    "rtol": "1e-9",
    "tol": "1e-8",
    "detour": "upper",
    "seed": "20260823",
    "jobs": "1",
}


# -- config -----------------------------------------------------------------------


def _parse_rat(text: str, key: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: not a rational: {text!r}") from exc


def _parse_weight(text: str, key: str):
    return tuple(_parse_rat(c.strip(), key) for c in text.split(","))


def _parse_word(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok in ("H", "h", "heart"):
            out.append(aw.HEART)
        else:
            try:
                out.append(int(tok))
            except ValueError as exc:
                raise ConfigError(f"word letter {tok!r} is not an index or H") from exc
    return out


def _parse_int(text: str, key: str, low: int = None) -> int:
    try:
        v = int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {text!r}") from exc
    if low is not None and v < low:
        raise ConfigError(f"{key}: must be >= {low}")
    return v


def _datum(cfg: dict) -> RootDatum:
    label = cfg["type"]
    m = re.fullmatch(r"[Aa](\d+)", label or "")
    if not m:
        raise ConfigError(f"type must be A<rank>, got {label!r}")
    rank = int(m.group(1))
    if not 1 <= rank <= 4:
        raise ConfigError("rank must be between 1 and 4")
    return type_a(rank)


def load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = val
    return out


def build_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key in DEFAULTS:
        flag = key.replace("-", "_")
        val = getattr(args, flag, None)
        if val is not None:
            cfg[key] = val
    return cfg


# -- serialization ----------------------------------------------------------------


def _digits(prec: int) -> int:
    return max(15, int(prec * 0.30103))


def ser(obj, dps: int = 30):
    """Deterministic JSON-ready form: exact scalars as strings, mp as strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Q):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Cyclotomic):
        return {"cyclotomic_order": obj.field.n,
                "coeffs": [ser(c) for c in obj.coeffs]}
    if isinstance(obj, mpmath.mpf):
        return mpmath.nstr(obj, dps)
    if isinstance(obj, mpmath.mpc):
        return [mpmath.nstr(obj.real, dps), mpmath.nstr(obj.imag, dps)]
    if isinstance(obj, mpmath.matrix):
        return [[ser(obj[i, j], dps) for j in range(obj.cols)]
                for i in range(obj.rows)]
    if isinstance(obj, complex):
        return [repr(obj.real), repr(obj.imag)]
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted((ser(x, dps) for x in obj), key=json.dumps)
    if isinstance(obj, (list, tuple)):
        return [ser(x, dps) for x in obj]
    if isinstance(obj, dict):
        return {_key_str(k): ser(v, dps) for k, v in obj.items()}
    if isinstance(obj, aw.TorusPoint):
        return {"values": [ser(v, dps) for v in obj.values],
                "exponent": ser(obj.exponent, dps)}
    if isinstance(obj, aw.AffineWeylElement):
        return {"translation": [ser(Q(c)) for c in obj.trans], "w": obj.w}
    return str(obj)


def _key_str(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, Q)):
        return str(k)
    if isinstance(k, (tuple, frozenset)):
        return json.dumps(ser(k), sort_keys=True)
    return str(k)


def _group_key_ser(datum: RootDatum, key) -> dict:
    trans, w = key
    return {"translation": [str(c) for c in trans],
            "w_word": list(datum.w_words[w])}


def _poly_ser(terms: dict) -> dict:
    out = {}
    for mono, coeff in sorted(terms.items()):
        out[",".join(str(e) for e in mono)] = ser(coeff)
    return out


def _daha_ser(elem: DahaElement) -> list:
    datum = elem.datum
    return [{"group": _group_key_ser(datum, key), "poly": _poly_ser(p.terms)}
            for key, p in sorted(elem.terms.items())]


def _aha_ser(elem: AhaElement) -> list:
    datum = elem.datum
    return [{"t_word": list(datum.w_words[w]), "poly": _poly_ser(p.terms)}
            for w, p in sorted(elem.terms.items())]


# -- element expression parser ------------------------------------------------------

_RAT_RE = re.compile(r"-?\d+(/\d+)?$")


def _parse_elem(datum: RootDatum, params, text: str, side: str):
    """Parse "3/2*s0*xi1^2 + xi2" (degenerate) or "t0*y1^-1 + zeta*y2" (aha).

    Terms are separated by '+', factors by '*'; negative terms are written
    with a negative leading coefficient.  Generator indices are 0-based.
    """
    algebra = DahaElement if side == "degenerate" else AhaElement
    total = algebra.zero(datum, params)
    for term_text in text.split("+"):
        term_text = term_text.strip()
        if not term_text:
            raise ConfigError(f"empty term in expression {text!r}")
        acc = algebra.one(datum, params)
        for tok in term_text.split("*"):
            tok = tok.strip()
            acc = acc * (Q(tok) if _RAT_RE.fullmatch(tok)
                         else _parse_factor(datum, params, tok, side))
        total = total + acc
    return total


def _parse_factor(datum: RootDatum, params, tok: str, side: str):
    rank = datum.rank
    name, _, exp_text = tok.partition("^")
    exp = 1
    if exp_text:
        try:
            exp = int(exp_text)
        except ValueError as exc:
            raise ConfigError(f"bad exponent in {tok!r}") from exc
    if side == "degenerate":
        if name in ("sH", "sh"):
            g = aw.simple_reflection(datum, aw.HEART)
            out = DahaElement.from_group(datum, params, g)
        elif name.startswith("s") and name[1:].isdigit():
            i = int(name[1:])
            if not 0 <= i < rank:
                raise ConfigError(f"reflection index out of range in {tok!r}")
            out = DahaElement.from_group(datum, params,
                                         aw.simple_reflection(datum, i))
        elif name.startswith("xi") and name[2:].isdigit():
            j = int(name[2:])
            if not 0 <= j < rank:
                raise ConfigError(f"xi index out of range in {tok!r}")
            if exp < 0:
                raise ConfigError("xi admits no negative powers")
            out = DahaElement.from_poly(datum, params, xi_variable(datum, j))
        else:
            raise ConfigError(f"unknown degenerate factor {tok!r}")
        if exp < 0:
            raise ConfigError(f"negative power not available for {tok!r}")
        acc = DahaElement.one(datum, params)
        for _ in range(exp):
            acc = acc * out
        return acc
    # aha side
    if name == "zeta":
        return AhaElement.one(datum, params).scale(params.zeta ** exp)
    if name.startswith("t") and name[1:].isdigit():
        i = int(name[1:])
        if not 0 <= i < rank:
            raise ConfigError(f"t index out of range in {tok!r}")
        if exp != 1:
            raise ConfigError("powers of t are not supported; repeat the factor")
        return AhaElement.from_t(datum, params, datum.w_simple[i])
    if name.startswith("y") and name[1:].isdigit():
        j = int(name[1:])
        if not 0 <= j < rank:
            raise ConfigError(f"y index out of range in {tok!r}")
        coords = tuple(exp if m == j else 0 for m in range(rank))
        return AhaElement.from_y(datum, params, y_monomial(datum, coords))
    raise ConfigError(f"unknown aha factor {tok!r}")


# -- shared builders ---------------------------------------------------------------


def _rho_family(datum: RootDatum, cfg: dict):
    """(lam0, h0): explicit values, or the rho/n family selected by k."""
    if cfg.get("k") is not None:
        k = _parse_int(cfg["k"], "k", low=1)
        n = datum.coxeter_number
        lam0 = tuple(c / n for c in datum.rho)
        return lam0, Q(k, n)
    if cfg.get("lam0") is None:
        raise ConfigError("need lam0 (and h0) or k")
    return _parse_weight(cfg["lam0"], "lam0"), _parse_rat(cfg["h0"], "h0")


def _random_daha_samples(datum: RootDatum, params, count: int,
                         seed: int) -> List[DahaElement]:
    rng = random.Random(seed)
    letters = list(range(datum.rank)) + [aw.HEART]
    out = []
    for _ in range(count):
        word = [rng.choice(letters) for _ in range(rng.randrange(0, 3))]
        elem = DahaElement.from_group(datum, params,
                                      aw.element_from_word(datum, word))
        poly = XiPolynomial.constant(Q(rng.randrange(-3, 4)), datum.rank)
        for j in range(datum.rank):
            if rng.random() < 0.5:
                poly = poly * xi_variable(datum, j)
        if poly:
            elem = elem * DahaElement.from_poly(datum, params, poly)
        if not elem.terms:
            elem = DahaElement.one(datum, params)
        out.append(elem)
    return out


def _dunkl_chunk(args) -> dict:
    rank, h_text, degree, count, seed = args
    datum = type_a(rank)
    params = aw.HeckeParams.degenerate(Q(h_text))
    samples = _random_daha_samples(datum, params, count, seed)
    return polynomial_rep_check(datum, params, samples, degree)


# -- subcommands -------------------------------------------------------------------


def cmd_roots(cfg: dict) -> dict:
    datum = _datum(cfg)
    return {
        **datum.to_json(),
        "simple_roots": [list(b) for b in datum.simple_roots],
        "positive_coroots": [list(b) for b in datum.positive_coroots],
        "theta_vee": [str(c) for c in datum.theta_vee],
    }


def cmd_orbit(cfg: dict) -> dict:
    datum = _datum(cfg)
    lam = _parse_weight(cfg["lam"], "lam")
    window = _parse_int(cfg["window"], "window", low=0)
    orbit = aw.orbit(datum, lam, window)
    points = [{"weight": ser(pt), "element": ser(g)}
              for pt, g in sorted(orbit.items())]
    return {"lam": ser(lam), "window": window, "count": len(points),
            "points": points}


def cmd_stabilizer(cfg: dict) -> dict:
    datum = _datum(cfg)
    lam = _parse_weight(cfg["lam"], "lam")
    stab, certified = aw.stabilizer(datum, lam)
    return {"lam": ser(lam), "order": len(stab), "certified": certified,
            "elements": [ser(g) for g in stab],
            "lemma13": ser(aw.lemma13_predicate(datum, lam))}


def cmd_alcoves(cfg: dict) -> dict:
    datum = _datum(cfg)
    radius = _parse_int(cfg["radius"], "radius", low=0)
    out = []
    for g in aw.ball(datum, radius):
        out.append({
            "element": ser(g),
            "word": list(aw.reduced_word(datum, g)),
            "length": aw.length(datum, g),
            "sample": ser(aw.alcove_sample(datum, g)),
        })
    out.sort(key=lambda e: (e["length"], json.dumps(e["element"])))
    return {"radius": radius, "count": len(out), "alcoves": out}


def cmd_domains(cfg: dict) -> dict:
    datum = _datum(cfg)
    lam0, h0 = _rho_family(datum, cfg)
    census = arr.domain_census(datum, lam0, h0)
    domains = [{
        "id": d["id"],
        "bounded": d["bounded"],
        "sample": ser(d["sample"]),
        "label": ser(d["label"]) if d["label"] is not None else None,
    } for d in census["domains"]]
    return {"lam0": ser(lam0), "h0": ser(h0),
            "count": len(domains),
            "bounded_count": sum(d["bounded"] for d in domains),
            "domains": domains}


def cmd_char(cfg: dict) -> dict:
    datum = _datum(cfg)
    params = aw.HeckeParams.degenerate(_parse_rat(cfg["h"], "h"))
    point = _parse_weight(cfg["point"] or cfg["lam"], "point")
    window = _parse_int(cfg["window"], "window", low=0)
    module = mods.standard_module(datum, params, point, window=window,
                                  n=_parse_int(cfg["n"], "n", low=1))
    ch = mods.character(module)
    return {"point": ser(point), "window": window,
            "dimension": module.dimension,
            "character": [{"weight": ser(wt), "mult": m}
                          for wt, m in ch.items()]}


def cmd_simple_char(cfg: dict) -> dict:
    datum = _datum(cfg)
    lam0, h0 = _rho_family(datum, cfg)
    window = _parse_int(cfg["window"], "window", low=0)
    census = arr.domain_census(datum, lam0, h0)
    sel = cfg["domain"]
    chosen = None
    if sel == "bounded":
        hits = [d for d in census["domains"] if d["bounded"]]
        if len(hits) != 1:
            raise ScopeError(f"expected one bounded domain, found {len(hits)}")
        chosen = hits[0]
    else:
        did = _parse_int(sel, "domain", low=0)
        for d in census["domains"]:
            if d["id"] == did:
                chosen = d
        if chosen is None:
            raise ConfigError(f"no domain with id {did}")
    label = chosen["label"] if chosen["label"] is not None else chosen["id"]
    weights = arr.simple_character(datum, lam0, h0, label, window, census)
    return {"lam0": ser(lam0), "h0": ser(h0), "window": window,
            "domain": {"id": chosen["id"], "bounded": chosen["bounded"]},
            "count": len(weights), "weights": ser(sorted(weights))}


def cmd_daha_mul(cfg: dict) -> dict:
    datum = _datum(cfg)
    params = aw.HeckeParams.degenerate(_parse_rat(cfg["h"], "h"))
    if cfg["a"] is None or cfg["b"] is None:
        raise ConfigError("daha-mul needs expressions a and b")
    a = _parse_elem(datum, params, cfg["a"], "degenerate")
    b = _parse_elem(datum, params, cfg["b"], "degenerate")
    return {"a": _daha_ser(a), "b": _daha_ser(b),
            "product": _daha_ser(daha_mul(a, b))}


def cmd_aha_mul(cfg: dict) -> dict:
    datum = _datum(cfg)
    params = aw.HeckeParams.from_exponent(_parse_rat(cfg["h0"], "h0"))
    if cfg["a"] is None or cfg["b"] is None:
        raise ConfigError("aha-mul needs expressions a and b")
    a = _parse_elem(datum, params, cfg["a"], "aha")
    b = _parse_elem(datum, params, cfg["b"], "aha")
    return {"a": _aha_ser(a), "b": _aha_ser(b),
            "product": _aha_ser(aha_mul(a, b))}


def cmd_dunkl_check(cfg: dict) -> dict:
    datum = _datum(cfg)
    h_text = cfg["h"]
    params = aw.HeckeParams.degenerate(_parse_rat(h_text, "h"))
    degree = _parse_int(cfg["degree"], "degree", low=0)
    count = _parse_int(cfg["samples"], "samples", low=2)
    seed = _parse_int(cfg["seed"], "seed")
    jobs = _parse_int(cfg["jobs"], "jobs", low=1)
    chunks = [(datum.rank, h_text, degree, max(2, count // jobs), seed + i)
              for i in range(jobs)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            reports = pool.map(_dunkl_chunk, chunks)
    else:
        reports = [_dunkl_chunk(c) for c in chunks]
    total = {
        "pairs": sum(r["pairs"] for r in reports),
        "monomials": reports[0]["monomials"],
        "failures": sum(r["failures"] for r in reports),
        "zero_actors": sum(r["zero_actors"] for r in reports),
    }
    # [D_j, D_k] = 0 on all monomials up to the degree
    comm_failures = 0
    monos = _laurent_monomials(datum, degree)
    for j in range(datum.rank):
        for k in range(j + 1, datum.rank):
            for m in monos:
                f = x_monomial(datum, m)
                jk = dunkl_apply(datum, params, j,
                                 dunkl_apply(datum, params, k, f))
                kj = dunkl_apply(datum, params, k,
                                 dunkl_apply(datum, params, j, f))
                if jk != kj:
                    comm_failures += 1
    total["commutator_failures"] = comm_failures
    total["ok"] = (total["failures"] == 0 and comm_failures == 0
                   and total["zero_actors"] == 0)
    if not total["ok"]:
        raise ToleranceError(f"Dunkl representation check failed: {total}")
    return total


def cmd_intertwiner(cfg: dict) -> dict:
    datum = _datum(cfg)
    side = cfg["side"]
    word = _parse_word(cfg["word"])
    if side == "degenerate":
        params = aw.HeckeParams.degenerate(_parse_rat(cfg["h"], "h"))
        point = _parse_weight(cfg["point"] or cfg["lam"], "point")
    elif side == "aha":
        params = aw.HeckeParams.from_exponent(_parse_rat(cfg["h0"], "h0"))
        point = aw.TorusPoint.from_exponent(
            datum, _parse_weight(cfg["point"] or cfg["lam"], "point"))
    else:
        raise ConfigError("side must be degenerate or aha")
    report = mods.invertibility(datum, params, word, point, side=side)
    out = {"word": cfg["word"], "side": side,
           "invertible": report["invertible"],
           "witness": report["witness"],
           "values": ser(report["values"])}
    if cfg.get("matrix") in ("1", "true", "yes") and side == "degenerate":
        window = _parse_int(cfg["window"], "window", low=1)
        g = aw.element_from_word(datum, word)
        m = mods.intertwiner_matrix(datum, params, g, point, window=window)
        out["blocks"] = {json.dumps(ser(wt)): {"det": ser(b["det"]),
                                               "size": b["size"]}
                         for wt, b in sorted(m["blocks"].items(),
                                             key=lambda kv: repr(kv[0]))}
        out["singular"] = m["singular"]
    return out


def _monodromy_rep(cfg: dict):
    datum = _datum(cfg)
    params = aw.HeckeParams.degenerate(_parse_rat(cfg["h"], "h"))
    mu0 = _parse_weight(cfg["mu0"] or cfg["lam"], "mu0")
    prec = _parse_int(cfg["prec"], "prec", low=53)
    fiber = mods.degenerate_fiber(datum, params, mu0)
    problem = kz.trig_problem(datum, params, fiber, prec=prec)
    rep = kz.monodromy(problem, order=_parse_int(cfg["order"], "order", low=2),
                       rtol=float(cfg["rtol"]), detour=cfg["detour"])
    return datum, params, mu0, rep


def cmd_monodromy(cfg: dict) -> dict:
    datum, params, mu0, rep = _monodromy_rep(cfg)
    tol = float(cfg["tol"])
    dps = _digits(rep["prec"])
    worst = max(rep["residuals"].values())
    out = {
        "mu0": ser(mu0),
        "h": ser(params.h),
        "prec": rep["prec"],
        "accuracy_bits": rep["accuracy_bits"],
        "Y": [ser(m, dps) for m in rep["Y"]],
        "T": [ser(m, dps) for m in rep["T"]],
        "y": [ser(m, dps) for m in rep["y"]],
        "t": [ser(m, dps) for m in rep["t"]],
        "zeta": ser(rep["zeta"], dps),
        "residuals": ser(rep["residuals"], dps),
        "ok": bool(worst < tol),
    }
    if not out["ok"]:
        raise ToleranceError(
            f"monodromy relation residual {mpmath.nstr(worst, 8)} above {tol}")
    return out


def cmd_verify_thm41(cfg: dict) -> dict:
    datum = _datum(cfg)
    lam0, h0 = _rho_family(datum, cfg)
    params = aw.HeckeParams.degenerate(h0)
    word = _parse_word(cfg["word"])
    res = kz.theorem41_check(
        datum, params, lam0, h0, word,
        prec=_parse_int(cfg["prec"], "prec", low=53),
        order=_parse_int(cfg["order"], "order", low=2),
        rtol=float(cfg["rtol"]), detour=cfg["detour"])
    dps = _digits(res["rep"]["prec"])
    return {
        "lam0": ser(lam0), "h0": ser(h0), "word": cfg["word"],
        "mu0": ser(res["mu0"]),
        "deep": res["deep"],
        "identified_w": res["identified_w"],
        "identified_point": ser(res["identified_point"], dps),
        "distance": ser(res["distance"], dps),
        "predicted_w": ser(res["predicted_w"]),
        "prediction_match": res["prediction_match"],
        "residuals": ser(res["residuals"], dps),
        "accuracy_bits": res["rep"]["accuracy_bits"],
    }


def cmd_verify_parabolic(cfg: dict) -> dict:
    datum = _datum(cfg)
    params = aw.HeckeParams.degenerate(_parse_rat(cfg["h"], "h"))
    J = tuple(_parse_word(cfg["J"]))
    mu0 = _parse_weight(cfg["mu0"] or cfg["lam"], "mu0")
    res = kz.parabolic_identify(
        datum, params, J, mu0, n=_parse_int(cfg["n"], "n", low=1),
        prec=_parse_int(cfg["prec"], "prec", low=53),
        order=_parse_int(cfg["order"], "order", low=2),
        rtol=float(cfg["rtol"]), detour=cfg["detour"],
        tol=mpmath.mpf(cfg["tol"]))
    if not J:
        dps = _digits(res["rep"]["prec"])
        best = res["identify"]["best"]
        return {"J": [], "mu0": ser(mu0),
                "identified_point": ser(best["point"], dps),
                "distance": ser(best["distance"], dps),
                "accuracy_bits": res["rep"]["accuracy_bits"],
                "authoritative": res["authoritative"]}
    dps = _digits(res["rep"]["prec"])
    return {
        "J": list(J), "mu0": ser(mu0), "n": int(cfg["n"]),
        "points": ser(res["points"]),
        "dimension": res["dimension"],
        "t_cyclic_residual": ser(res["t_cyclic_residual"], dps),
        "jet_residual": ser(res["jet_residual"], dps),
        "cyclic": res["cyclic"],
        "accuracy_bits": res["rep"]["accuracy_bits"],
        "warnings": res["warnings"],
        "authoritative": res["authoritative"],
        "ok": res["ok"],
    }


def schur_example(datum: RootDatum, params, n: int = 2) -> dict:
    """Wedderburn data of End(P(l0) + P(l0^-1) + P_I(O)_n) at the A1 fixture.

    l0 = e^{rho/2} with h0 = 1/2; the parabolic summand is thickened to jet
    order n so that it stays indecomposable (at n = 1 the truncation splits
    and Krull-Schmidt sees four blocks instead of three).
    """
    if datum.rank != 1:
        raise ScopeError("the Schur example fixture is rank-one only")
    lam0 = tuple(c / datum.coxeter_number for c in datum.rho)
    ell0 = aw.TorusPoint.from_exponent(datum, lam0)
    ell0i = ell0.inverse_point()
    p_plus = mods.standard_module(datum, params, ell0, side="aha")
    p_minus = mods.standard_module(datum, params, ell0i, side="aha")
    p_par = mods.parabolic_module(datum, params, (0,), [ell0, ell0i],
                                  n=n, side="aha")
    endo = mods.endomorphism_algebra([p_plus, p_minus, p_par])
    return {
        "jet_order": n,
        "summand_dimensions": [p_plus.dimension, p_minus.dimension,
                               p_par.dimension],
        "endo_dimension": endo["dimension"],
        "algebra_dim": endo["algebra_dim"],
        "radical_dim": endo["radical_dim"],
        "center_dim": endo["center_dim"],
        "simple_count": endo["simple_count"],
    }


def cmd_schur_example(cfg: dict) -> dict:
    datum = _datum(cfg)
    params = aw.HeckeParams.from_exponent(_parse_rat(cfg["h0"], "h0"))
    return schur_example(datum, params, n=_parse_int(cfg["n"], "n", low=1))


# -- selftests ---------------------------------------------------------------------


def _selftest_roots():
    checks = []
    for r in (1, 2):
        d = type_a(r)
        ok = all(d.pairing(tuple(Q(c) for c in d.simple_roots[j]),
                           tuple(Q(c) for c in d.coroot_of(d.simple_roots[i])))
                 == d.cartan[i][j]
                 for i in range(r) for j in range(r))
        checks.append({"name": f"cartan-pairing-A{r}", "passed": ok})
        checks.append({"name": f"weyl-order-A{r}",
                       "passed": d.w_order == math.factorial(r + 1)})
    return checks


def _selftest_orbit():
    d = type_a(2)
    lam = (Q(1, 5), Q(1, 7))
    small = set(aw.orbit(d, lam, 2))
    big = set(aw.orbit(d, lam, 3))
    return [{"name": "orbit-window-monotone", "passed": small <= big},
            {"name": "orbit-contains-lam", "passed": lam in small}]


def _selftest_stabilizer():
    d = type_a(1)
    stab, _ = aw.stabilizer(d, (Q(1, 5),))
    return [{"name": "generic-stabilizer-trivial", "passed": len(stab) == 1}]


def _selftest_alcoves():
    d = type_a(2)
    ok = all(aw.length(d, g) == len(aw.reduced_word(d, g))
             for g in aw.ball(d, 3))
    return [{"name": "reduced-word-length", "passed": ok}]


def _selftest_domains():
    out = []
    for r, count in ((1, 3), (2, 7)):
        d = type_a(r)
        n = d.coxeter_number
        census = arr.domain_census(d, tuple(c / n for c in d.rho), Q(1, n))
        doms = census["domains"]
        out.append({"name": f"census-A{r}",
                    "passed": len(doms) == count
                    and sum(e["bounded"] for e in doms) == 1})
    return out


def _selftest_char():
    d = type_a(1)
    params = aw.HeckeParams.degenerate(Q(1, 2))
    m = mods.standard_module(d, params, (Q(1, 4),), window=4)
    ch = mods.character(m)
    return [{"name": "standard-multiplicity-one",
             "passed": all(v == 1 for _, v in ch.items())}]


def _selftest_simple_char():
    d = type_a(1)
    rep = mods.composition_check(d, (Q(1, 4),), Q(1, 2), window=21,
                                 weight_bound=Q(17, 2))
    return [{"name": "character-sum-rule", "passed": rep["all_equal"]}]


def _selftest_daha_mul():
    d = type_a(2)
    params = aw.HeckeParams.degenerate(Q(1, 3))
    samples = _random_daha_samples(d, params, 9, 20260823)
    ok = all(daha_mul(daha_mul(a, b), c) == daha_mul(a, daha_mul(b, c))
             for a, b, c in zip(samples[0::3], samples[1::3], samples[2::3]))
    return [{"name": "daha-associativity", "passed": ok}]


def _selftest_aha_mul():
    d = type_a(2)
    params = aw.HeckeParams.from_exponent(Q(1, 3))
    t0 = AhaElement.from_t(d, params, d.w_simple[0])
    one = AhaElement.one(d, params)
    quad = aha_mul(t0 - one.scale(params.zeta), t0 + one)
    y1 = AhaElement.from_y(d, params, y_monomial(d, (1, 0)))
    y2 = AhaElement.from_y(d, params, y_monomial(d, (0, 1)))
    return [{"name": "hecke-quadratic", "passed": not quad.terms},
            {"name": "y-commute",
             "passed": aha_mul(y1, y2) == aha_mul(y2, y1)}]


def _selftest_dunkl_check():
    rep = _dunkl_chunk((1, "1/2", 2, 6, 20260823))
    return [{"name": "dunkl-degree-2",
             "passed": rep["failures"] == 0 and rep["zero_actors"] == 0}]


def _selftest_intertwiner():
    d = type_a(1)
    params = aw.HeckeParams.degenerate(Q(1, 2))
    sing = mods.invertibility(d, params, [0], (Q(1, 4),))
    inv = mods.invertibility(d, params, [0], (Q(3, 4),))
    return [{"name": "singular-at-h", "passed": not sing["invertible"]},
            {"name": "invertible-at-3/2", "passed": inv["invertible"]}]


def _selftest_monodromy():
    with mpmath.workprec(128):
        problem = kz.scalar_problem(Q(1, 4), prec=128)
        path = kz.loop_path(problem.base, 0)
        t = kz.continue_transport(problem, path, rtol=1e-10)
        ok1 = abs(t[0, 0] - mpmath.mpc(0, 1)) < mpmath.mpf("1e-9")
        t_empty = kz.continue_transport(problem, [], rtol=1e-10)
        ok2 = abs(t_empty[0, 0] - 1) < mpmath.mpf("1e-20")
    return [{"name": "scalar-loop-multiplier-i", "passed": bool(ok1)},
            {"name": "empty-path-identity", "passed": bool(ok2)}]


def _selftest_verify_thm41():
    d = type_a(1)
    res = kz.theorem41_check(d, aw.HeckeParams.degenerate(Q(1, 2)),
                             (Q(1, 4),), Q(1, 2), [aw.HEART],
                             prec=96, order=12, rtol=1e-7)
    return [{"name": "remark41-quick",
             "passed": res["identified_w"] == 0
             and res["prediction_match"] is True}]


def _selftest_verify_parabolic():
    d = type_a(1)
    res = kz.parabolic_identify(d, aw.HeckeParams.degenerate(Q(1, 2)),
                                (0,), (Q(1, 4),), n=1,
                                prec=96, order=12, rtol=1e-7)
    return [{"name": "parabolic-n1-quick", "passed": res["ok"]}]


def _selftest_schur_example():
    d = type_a(1)
    params = aw.HeckeParams.from_exponent(Q(1, 2))
    rep = schur_example(d, params, n=2)
    return [{"name": "three-simples", "passed": rep["simple_count"] == 3}]


SELFTESTS = {
    "roots": _selftest_roots,
    "orbit": _selftest_orbit,
    "stabilizer": _selftest_stabilizer,
    "alcoves": _selftest_alcoves,
    "domains": _selftest_domains,
    "char": _selftest_char,
    "simple-char": _selftest_simple_char,
    "daha-mul": _selftest_daha_mul,
    "aha-mul": _selftest_aha_mul,
    "dunkl-check": _selftest_dunkl_check,
    "intertwiner": _selftest_intertwiner,
    "monodromy": _selftest_monodromy,
    "verify-thm41": _selftest_verify_thm41,
    "verify-parabolic": _selftest_verify_parabolic,
    "schur-example": _selftest_schur_example,
}

COMMANDS = {
    "roots": cmd_roots,
    "orbit": cmd_orbit,
    "stabilizer": cmd_stabilizer,
    "alcoves": cmd_alcoves,
    "domains": cmd_domains,
    "char": cmd_char,
    "simple-char": cmd_simple_char,
    "daha-mul": cmd_daha_mul,
    "aha-mul": cmd_aha_mul,
    "dunkl-check": cmd_dunkl_check,
    "intertwiner": cmd_intertwiner,
    "monodromy": cmd_monodromy,
    "verify-thm41": cmd_verify_thm41,
    "verify-parabolic": cmd_verify_parabolic,
    "schur-example": cmd_schur_example,
}


# -- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dahakz",
        description="Exact/high-precision computations for degenerate DAHA "
                    "modules and their KZ monodromy; JSON output.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--selftest", action="store_true",
                       help="run this subcommand's invariant suite")
        p.add_argument("--out", help="write the JSON document here")
        for key in DEFAULTS:
            p.add_argument(f"--{key.replace('_', '-')}",
                           dest=key, default=None)
    return parser


def run(subcommand: str, cfg: dict, selftest: bool = False) -> dict:
    """Dispatch one subcommand; returns the full JSON document."""
    if subcommand not in COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if selftest:
        checks = SELFTESTS[subcommand]()
        passed = all(c["passed"] for c in checks)
        result = {"selftest": checks, "passed": passed}
        if not passed:
            raise ToleranceError(f"selftest failed: {checks}")
    else:
        result = COMMANDS[subcommand](cfg)
    return {
        "schema": SCHEMA,
        "subcommand": subcommand,
        "config": {k: v for k, v in sorted(cfg.items()) if v is not None},
        "result": result,
    }


def _emit(doc: dict, out_path) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        doc = run(args.subcommand, cfg, selftest=args.selftest)
        _emit(doc, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ScopeError as exc:
        print(f"scope error: {exc}", file=sys.stderr)
        return 3
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
