import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hblab

ROOT = Path(__file__).resolve().parents[1]


# where each public name is defined; the names of the last four modules
# load on first access
HOMES = {
    "boundary": ["Arc", "CircleMeasure", "UnitCircleFunction",
                 "analytic_projection", "cauchy", "evaluate",
                 "fourier_coeffs", "herglotz", "roots"],
    "errors": ["DomainError", "ExtremeFunctionError", "FactorizationError",
               "HBLabError", "MembershipError", "NormalizationError",
               "PoleError", "SpaceMismatchError", "UnitBallError"],
    "factor": ["fejer_riesz", "inner_outer", "is_outer", "mate_of_b"],
    "hb": ["HbElement", "HbSpace", "boundary_kernel", "divide_inner",
           "element_from_rational", "inner_product", "inner_product_exact",
           "kernel", "kernel_element", "make_element", "make_space",
           "make_space_from_phi", "mate"],
    "parse": ["parse_function"],
    "clark": ["ClarkMeasure", "clark_measure", "normalized_cauchy",
              "normalized_cauchy_rational", "poltoratski_limit"],
    "cyclicity": ["CyclicityReport", "DecayTable", "assess",
                  "classify_finite_defect", "decay_table",
                  "estimate_from_decay", "necessity_check",
                  "theorem_a_check", "theorem_b_check", "theorem_c_check"],
    "models": ["DirichletSpec", "ThetaModel", "dirichlet_cyclic",
               "dirichlet_integral", "dirichlet_norm", "theta_cyclic",
               "theta_model", "universal_cyclicity"],
    "sigma": ["SigmaBounds", "ToeplitzSectionReport",
              "jphi_membership_residuals", "phi_alpha",
              "pseudocontinuation_eval", "sigma_bounds", "sigma_lower",
              "sigma_upper", "toeplitz_kernel_sections"],
}


def fresh(code: str, *args: str) -> str:
    """The last stdout line of code run in a fresh interpreter on this
    checkout's hblab."""
    src = str(Path(hblab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # every public name is resolved first: the names that load on first
    # access would otherwise escape the check
    code = ("import sys, hblab\nfor name in hblab.__all__:\n"
            "    getattr(hblab, name)\nprint(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert fresh(code) == "[]"


class TestNamespace:
    """The package namespace, checked in fresh interpreters: the test
    process has loaded every module."""

    def test_all_is_every_public_name(self):
        names = [n for names in HOMES.values() for n in names]
        assert len(hblab.__all__) == len(set(hblab.__all__))
        assert sorted(hblab.__all__) == sorted(names)

    def test_each_name_is_its_modules_object(self):
        # and, once resolved, bound in the package namespace
        code = ("import importlib, json, sys, hblab\n"
                "homes = json.loads(sys.argv[1])\n"
                "print(json.dumps(sorted(n for m, names in homes.items() "
                "for n in names if getattr(hblab, n) is not getattr("
                "importlib.import_module('hblab.' + m), n) "
                "or n not in vars(hblab))))")
        assert fresh(code, json.dumps(HOMES)) == "[]"

    def test_star_import_and_dir(self):
        code = ("import json, hblab\n"
                "bad = sorted({'__all__', *hblab.__all__} - set(dir(hblab)))\n"
                "from hblab import *\n"
                "bad += [n for n in hblab.__all__ "
                "if globals()[n] is not getattr(hblab, n)]\n"
                "print(json.dumps(bad))")
        assert fresh(code) == "[]"

    def test_modules_after_plain_import(self):
        code = ("import json, sys, hblab\nprint(json.dumps([m for m in "
                "('clark', 'cyclicity', 'models', 'sigma') if getattr("
                "hblab, m) is not sys.modules['hblab.' + m]]))")
        assert fresh(code) == "[]"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hblab.no_such_name


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]
