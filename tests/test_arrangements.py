"""Hyperplane arrangements, domain census, characters, dagger injection."""
from fractions import Fraction as Q

import pytest

import dahakz.affine as aw
import dahakz.arrangements as arr
from dahakz.affine import HEART, HeckeParams, TorusPoint
from dahakz.rootdata import type_a
from dahakz.scalars import root_of_unity

D1 = type_a(1)
D2 = type_a(2)


def test_fm_feasible_simple():
    # constraints are (coeffs, const, strict) meaning coeffs . x + const > 0
    feas = [((Q(1),), Q(0), True), ((Q(-1),), Q(1), True)]   # 0 < x < 1
    infeas = [((Q(1),), Q(0), True), ((Q(-1),), Q(-1), True)]  # 0 < x < -1
    assert arr.fm_feasible(feas, 1)
    assert not arr.fm_feasible(infeas, 1)
    w = arr.fm_witness(feas, 1)
    assert w is not None and Q(0) < w[0] < Q(1)


def test_census_counts_a1_a2():
    for d, expected in ((D1, 3), (D2, 7)):
        n = d.coxeter_number
        lam0 = tuple(c / n for c in d.rho)
        census = arr.domain_census(d, lam0, Q(1, n))
        doms = census["domains"]
        assert len(doms) == expected == 2 ** (d.rank + 1) - 1
        assert sum(e["bounded"] for e in doms) == 1
        labels = [e["label"] for e in doms]
        assert None not in labels and len(set(labels)) == len(labels)


def test_census_nontrivial_stabilizer_rejected():
    from dahakz.errors import ScopeError
    with pytest.raises(ScopeError):
        arr.domain_census(D1, (Q(0),), Q(1, 2))


def test_domain_of_alcove_consistent():
    census = arr.domain_census(D1, (Q(1, 4),), Q(1, 2))
    e = aw.identity(D1)
    dom_e = arr.domain_of_alcove(D1, census, e)
    assert dom_e["bounded"]
    dom_h = arr.domain_of_alcove(D1, census, aw.simple_reflection(D1, HEART))
    assert not dom_h["bounded"]
    assert dom_h["id"] != dom_e["id"]


def test_simple_characters_partition_ball():
    census = arr.domain_census(D1, (Q(1, 4),), Q(1, 2))
    window = 9
    total = []
    for d in census["domains"]:
        label = d["label"]
        total += [tuple(w) for w in
                  arr.simple_character(D1, (Q(1, 4),), Q(1, 2), label,
                                       window, census)]
    ball_weights = sorted(tuple(aw.act_weight(D1, g, (Q(1, 4),)))
                          for g in aw.ball(D1, window))
    assert sorted(total) == ball_weights


def test_chamber_domains_and_dagger_injective():
    params = HeckeParams.from_exponent(Q(1, 2))
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    chamber = arr.chamber_domains(D1, ell, params.zeta)
    census = arr.domain_census(D1, (Q(1, 4),), Q(1, 2))
    mapping = arr.dagger(D1, chamber, census)
    targets = list(mapping.values())
    assert len(targets) == len(chamber["domains"])
    assert len(set(t["id"] if isinstance(t, dict) else t for t in targets)) \
        == len(targets)


@pytest.mark.parametrize("lam0, h0", [((Q(-19, 5), Q(1)), Q(6, 5)),
                                      ((Q(-13), Q(9, 5)), Q(1, 5))])
def test_dagger_takes_the_deep_limit(lam0, h0):
    # a deep sample can read the same signs at two consecutive doublings
    # before its limit: for the first input the sample (0, -1) reads
    # (-1, 1) at t = 1 and 2, lies on a wall at t = 4 and reads (-1, -1)
    # from t = 8 on; the map is the exact limit and stays injective
    ell = TorusPoint.from_exponent(D2, lam0)
    chamber = arr.chamber_domains(D2, ell, root_of_unity(h0))
    census = arr.domain_census(D2, lam0, h0)
    mapping = arr.dagger(D2, chamber, census)
    ids = [e["id"] for e in mapping.values()]
    assert len(set(ids)) == len(ids) == len(chamber["domains"])
    for dom in chamber["domains"]:
        deep = tuple(2 ** 40 * c for c in dom["sample"])
        assert mapping[dom["id"]]["signs"] == \
            arr.sign_vector(D2, census["walls"], deep)


def test_chamber_arrangement_detects_critical_coroots():
    params = HeckeParams.from_exponent(Q(1, 2))
    ell = TorusPoint.from_exponent(D1, (Q(1, 4),))
    coroots = arr.chamber_arrangement(D1, ell, params.zeta)
    # y_{alpha-vee}(ell) = e^{2 pi i / 2} = zeta, so alpha-vee is critical
    assert len(coroots) >= 1


def test_sign_vector_separates_cells():
    census = arr.domain_census(D2, (Q(1, 3), Q(1, 3)), Q(1, 3))
    svs = {e["signs"] for e in census["domains"]}
    assert len(svs) == len(census["domains"])
