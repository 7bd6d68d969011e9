"""The references agree with closed forms and with each other."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import inputs
import refs


@pytest.mark.parametrize("num,den,zeta,mass", [
    ([0, 0.5, 0.5], None, 1, 2 / 3),
    ([0.5, 0.5], None, 1, 2.0),
    ([0, 1], [2, 1], -1, 0.5),
])
def test_julia_caratheodory_masses(num, den, zeta, mass):
    assert refs.defect_points(num, den) == pytest.approx([zeta])
    assert refs.jc_mass(num, den, zeta) == pytest.approx(mass, rel=1e-12)


def test_defect_points_of_half_shift():
    pts = refs.defect_points([0.5, 0, 0, 0, 0.5], None)
    assert [refs.angle(z) for z in pts] == pytest.approx(
        [0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_no_defect_points_below_the_circle():
    rng = np.random.default_rng(0)
    for d in inputs.RANDOM_DEGREES:
        b = inputs.random_b(rng, d)
        assert inputs.circle_sup(b) == pytest.approx(0.9)
        assert refs.defect_points(b, None) == []


def test_norm_of_one():
    # ||1||^2 = 1 + |b(0)|^2/|a(0)|^2; for (1+z)/(3+z), a(0) = (1+sqrt3)/3
    assert refs.norm1_sq([0.5, 0.5], None) == pytest.approx(2, rel=1e-10)
    assert refs.norm1_sq([0, 0.5], None) == pytest.approx(1, rel=1e-12)
    a0 = (1 + math.sqrt(3)) / 3
    assert refs.norm1_sq([1, 1], [3, 1]) == pytest.approx(
        1 + (1 / 9) / a0 ** 2, rel=1e-10)


def test_candidate_lower_bounds():
    # 1 - z vanishes at the defect point of (1+z)/2: d_N^2 = 2 = ||1||^2
    ref = refs.candidate_ref([0.5, 0.5], None, [1, -1], [1])
    assert ref == {"verdict": "not_cyclic", "lower": pytest.approx(2)}
    # z - w vanishes at w inside the disk: (1-|w|^2)/(1-|b(w)|^2)
    w = 0.5
    ref = refs.candidate_ref([0, 0.5], None, [-w, 1], [])
    assert ref["verdict"] == "not_cyclic"
    assert ref["lower"] == pytest.approx((1 - w * w) / (1 - (w / 2) ** 2))
    assert refs.candidate_ref([0.5, 0.5], None, [2, 1], [1])["verdict"] == \
        "cyclic"


def test_sympy_matches_closed_forms():
    p, a = inputs.EXACT_SPACES["(1+z)/2"]
    for k in (0, 3, 11):
        f = [["0", "0"]] * k + [["1", "0"]]
        assert refs.exact_inner(p, a, f, f) == [str(4 * k + 2), "0"]
    rng = np.random.default_rng(3)
    f = inputs.frac_pack(inputs.small_poly(rng, 6))
    g = inputs.frac_pack(inputs.small_poly(rng, 4))
    p, a = inputs.EXACT_SPACES["z/2"]
    assert refs.exact_inner(p, a, f, g) == refs.closed_form_inner("z/2", f, g)


def test_closed_form_mates_are_pythagorean():
    for name, (num, a) in inputs.EXACT_SPACES.items():
        assert refs.exact_mate_is_pythagorean(
            {"num_exact": num, "a_exact": a}), name
    assert not refs.exact_mate_is_pythagorean(
        {"num_exact": ["1/2", "1/2"], "a_exact": ["1/2", "1/2"]})


def test_exact_norm_of_one():
    spaces = {n: {"num_exact": num, "a_exact": a}
              for n, (num, a) in inputs.EXACT_SPACES.items()}
    assert refs.exact_norm1_sq(spaces["(1+z)/2"]) == "2"
    assert refs.exact_norm1_sq(spaces["z/2"]) == "1"


def test_dirichlet_reference():
    ref = refs.dirichlet_ref([1, -1])
    assert ref == {"integral": "1", "norm_sq": "3", "verdict": "not_cyclic"}
    assert refs.dirichlet_ref([2, 1])["verdict"] == "cyclic"


def test_clark_atom_reference():
    pts = refs.alpha_points([0, 0.5, 0.5], None, 1)
    assert pts == pytest.approx([1])
    w = cmath.exp(1j)
    pts = refs.alpha_points([0.5, 0, 0.5], None, w)
    for z in pts:
        assert abs((1 + z * z) / 2 - w) < 1e-12


def test_generated_candidates_have_their_kind():
    rng = np.random.default_rng(5)
    pts = refs.defect_points([0.5, 0, 0, 0, 0.5], None)
    for _ in range(20):
        outer = inputs.random_f(rng, "outer", pts)
        assert refs.candidate_ref([0.5, 0, 0, 0, 0.5], None, outer,
                                  pts)["verdict"] == "cyclic"
        inner = inputs.random_f(rng, "inner")
        assert refs.candidate_ref([0, 0.5], None, inner, [])["lower"] > 0
        vanish = inputs.random_f(rng, "vanish", pts)
        assert refs.candidate_ref([0.5, 0, 0, 0, 0.5], None, vanish,
                                  pts)["lower"] == pytest.approx(0.5)


def test_plans_repeat_for_a_seed():
    for name, make in inputs.PLANS.items():
        assert make(7) == make(7), name
        assert make(7) != make(8), name
    small = inputs.small_poly(np.random.default_rng(1), 3)
    assert all(isinstance(c, Fraction) for pair in small for c in pair)
