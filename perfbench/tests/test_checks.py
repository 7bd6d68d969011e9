"""The checks pass hblab's outputs and catch outputs that are wrong."""

import copy
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checks
import hblab
import refs


def sref_of(num, den=None):
    pts = refs.defect_points(num, den)
    return {"defects": [refs.angle(z) for z in pts],
            "masses": [refs.jc_mass(num, den, z) for z in pts],
            "base_atoms": refs.base_atoms(num, den, pts),
            "norm1_sq": refs.norm1_sq(num, den)}


def space(num, den=None, exact=False):
    b = hblab.UnitCircleFunction.polynomial(num) if den is None else \
        hblab.UnitCircleFunction.rational(num, den)
    return hblab.make_space(b, use_exact=exact)


def test_decay_entries_bounds():
    good = [(1, 2.0), (2, 1.5), (3, 1.5)]
    checks.decay_entries(good, 3, 2.0, 1.0, "t")
    for bad, n, top, low in (
            ([(1, 1.0), (2, 1.2)], 2, 2.0, 0.0),       # increases
            ([(1, 2.5), (2, 1.0)], 2, 2.0, 0.0),       # above ||1||^2
            ([(1, 2.0), (2, 0.5)], 2, 2.0, 1.0),       # below the bound
            ([(1, 2.0), (3, 1.0)], 2, 2.0, 0.0),       # sizes
            ([(1, 2.0), (2, 1.9)], 2, 2.0, 2.0)):      # must stay at 2
        with pytest.raises(checks.CheckError):
            checks.decay_entries(bad, n, top, low, "t")


def test_sigma_check_on_hblab_output():
    num, den = [0, 1], [2, 1]
    sref = sref_of(num, den)
    bounds = hblab.sigma_bounds(space(num, den))
    checks.sigma(bounds, sref, "z/(2+z)")
    wrong = copy.deepcopy(sref)
    wrong["masses"] = [0.25]
    with pytest.raises(checks.CheckError):
        checks.sigma(bounds, wrong, "z/(2+z)")
    wrong = dict(sref, defects=[0.0])
    with pytest.raises(checks.CheckError):
        checks.sigma(bounds, wrong, "z/(2+z)")
    # (1+z)/2: b(1) = 1, an atom of the base measure
    num = [0.5, 0.5]
    checks.sigma(hblab.sigma_bounds(space(num)), sref_of(num), "(1+z)/2")


def test_sigma_sets():
    pi = math.pi
    # z/(2+z): b(-1) = -1, so the defect point must be in both sets
    ref = {"defects": [pi], "masses": [0.5], "base_atoms": [False]}
    assert checks.sigma_sets([pi], [pi], True, True, ref, "t") == [(pi, 0.5)]
    for lower, upper, nested, base_ac in (
            ([], [pi], True, True),             # defect point missing
            ([pi], [], False, True),            # not nested
            ([pi, 0.0], [pi], False, True),     # a point that is no defect
            ([pi], [pi], False, True),          # nested but not flagged
            ([pi], [pi], True, False)):         # flag disagrees
        with pytest.raises(checks.CheckError):
            checks.sigma_sets(lower, upper, nested, base_ac, ref, "t")
    # z(1+z)/2: b(1) = 1, so the point may be in the lower set or not
    ref = {"defects": [0.0], "masses": [2 / 3], "base_atoms": [True]}
    assert checks.sigma_sets([0.0], [], False, False, ref, "t") == \
        [(0.0, 2 / 3)]
    assert checks.sigma_sets([], [], True, False, ref, "t") == []
    assert checks.sigma_sets([0.0], [0.0], True, False, ref, "t") == \
        [(0.0, 2 / 3)]
    with pytest.raises(checks.CheckError):
        checks.sigma_sets([0.0], [], False, True, ref, "t")
    with pytest.raises(checks.CheckError):
        checks.sigma_sets([], [], False, False, ref, "t")


def test_assess_check_on_hblab_output():
    num = [0.5, 0, 0.5]
    sref = sref_of(num)
    sp = space(num)
    for f in ([1, 1], [2, 1], [0, 1]):
        cref = refs.candidate_ref(num, None, f, refs.defect_points(num, None))
        checks.assess(hblab.assess(sp, f), sref, cref, 32, str(f))
    rep = hblab.assess(sp, [2, 1])
    rep.verdict = "not_cyclic"
    with pytest.raises(checks.CheckError):
        checks.assess(rep, sref, {"verdict": "cyclic", "lower": 0.0}, 32, "x")


def test_exact_checks_on_hblab_output():
    sp = space([0.5, 0.5], exact="auto")
    e1 = hblab.make_element(sp, [0, 0, 0, 1])
    e2 = hblab.make_element(sp, [1, 0.5j])
    ip = hblab.inner_product_exact(sp, e1, e2)
    p, a = ["1/2", "1/2"], ["1/2", "-1/2"]
    f1, f2 = [["0", "0"]] * 3 + [["1", "0"]], [["1", "0"], ["0", "1/2"]]
    ref = {"n1": ["14", "0"], "n2": refs.exact_inner(p, a, f2, f2),
           "ip": refs.exact_inner(p, a, f1, f2)}
    checks.element_pair(e1, e2, ip, ref, "t")
    with pytest.raises(checks.CheckError):
        checks.element_pair(e1, e2, ip, dict(ref, n1=["15", "0"]), "t")
    table = hblab.decay_table(sp, [1, -1], 8, use_exact=True)
    checks.exact_decay(table, 8, "2", 2.0, "t")
    table.exact_entries[3] = (4, Fraction(19, 10))
    with pytest.raises(checks.CheckError):
        checks.exact_decay(table, 8, "2", 2.0, "t")


def test_cli_documents():
    ref = {"k": 3}
    checks.cli("norm", {"norm_sq": 14.0, "norm_sq_exact": "14"}, ref)
    with pytest.raises(checks.CheckError):
        checks.cli("norm", {"norm_sq": 15.0, "norm_sq_exact": "15"}, ref)
    doc = {"atoms": [[0.0, 0.5], [math.pi, 0.5]], "model_dimension": 2,
           "mass_total": 1.0, "verdict": "cyclic"}
    checks.cli("theta", doc, {"k": 2, "verdict": "cyclic"})
    with pytest.raises(checks.CheckError):
        checks.cli("theta", dict(doc, model_dimension=3),
                   {"k": 2, "verdict": "cyclic"})
    with pytest.raises(checks.CheckError):
        checks.cli("unknown", {}, {})


def test_verify_document():
    checks.verify({"passed": 11, "failed": []}, 0)
    with pytest.raises(checks.CheckError):
        checks.verify({"passed": 10, "failed": ["x"]}, 1)


def test_fraction_pair_reads_exact_values():
    assert checks.fraction_pair(Fraction(3, 2)) == (Fraction(3, 2), 0)
    val = SimpleNamespace(re=Fraction(1), im=Fraction(-2))
    assert checks.fraction_pair(val) == (1, -2)
