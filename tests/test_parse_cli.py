import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hblab import cli, config
from hblab.boundary import UnitCircleFunction as UCF
from hblab.parse import POWER_MAX_DEGREE, ParseError, parse_function


class TestParse:
    def test_simple_forms(self):
        zs = 0.8 * config.unit_circle_points(16)
        cases = {
            "(1+z)/2": lambda z: (1 + z) / 2,
            "z(1+z)/2": lambda z: z * (1 + z) / 2,
            "1-z": lambda z: 1 - z,
            "z^2": lambda z: z ** 2,
            "(3z+z^2)/4": lambda z: (3 * z + z ** 2) / 4,
            "0.5+0.5z": lambda z: 0.5 + 0.5 * z,
            "2i*z": lambda z: 2j * z,
            "-z/2": lambda z: -z / 2,
            "(z-0.5)/(1-0.5z)": lambda z: (z - 0.5) / (1 - 0.5 * z),
            "3/(2+z)": lambda z: 3 / (2 + z),
        }
        for text, fn in cases.items():
            got = parse_function(text)
            assert np.max(np.abs(got(zs) - fn(zs))) < 1e-12, text

    def test_structured_object(self):
        fn = parse_function({"type": "poly", "coeffs": [[0.5, 0], [0.5, 0]]})
        assert np.allclose(fn.to_polynomial(), [0.5, 0.5])
        fn2 = parse_function(
            '{"type":"rational","num":[[1,0]],"den":[[2,0],[1,0]]}')
        assert fn2(0) == pytest.approx(0.5)
        fn3 = parse_function(
            '{"type":"blaschke","zeros":[[0.5,0]],"phase":[1,0]}')
        assert abs(abs(complex(fn3(np.exp(1j)))) - 1) < 1e-12

    def test_errors(self):
        for bad in ("", "z +", "(1+z", "z^-1", "q", "1..2"):
            with pytest.raises(ParseError):
                parse_function(bad)

    def test_exponents(self):
        # an exponent belongs to its number, and implicit multiplication
        # follows it
        for text, coeffs in (("1e-3+z", [1e-3, 1]), ("2.5E+2z", [0, 250]),
                             ("1E2 - .5e1i z", [100, -5j]),
                             ("3e0^2", [9]), ("z(1e1+z)", [0, 10, 1])):
            assert np.array_equal(parse_function(text).to_polynomial(),
                                  np.array(coeffs, dtype=complex)), text
        for bad, msg in (("1e", "bad number '1e'"),
                         ("1e+z", "bad number '1e\\+'"),
                         ("2.5E-", "bad number"), ("e2", "character 'e'"),
                         ("1e999", "not finite")):
            with pytest.raises(ParseError, match=msg):
                parse_function(bad)


    def test_powers_by_squaring(self, monkeypatch):
        assert np.array_equal(parse_function("(1+z)^7").to_polynomial(),
                              [1, 7, 21, 35, 35, 21, 7, 1])
        assert np.array_equal(parse_function("2^1000").to_polynomial(),
                              [2.0 ** 1000])
        assert parse_function("(1+z)^0").to_polynomial().tolist() == [1]
        base = parse_function("(1+z)/(3+z)")
        want = base * base * base * base * base
        got = parse_function("((1+z)/(3+z))^5")
        assert np.allclose(got.num, want.num, rtol=0, atol=1e-15)
        assert np.allclose(got.den, want.den, rtol=0, atol=1e-15)
        products = []
        mul = UCF.__mul__

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(UCF, "__mul__", counted)
        assert parse_function("z^512").degree() == 512
        assert len(products) == 10           # 9 squarings and one product

    def test_power_degree_cap(self):
        assert POWER_MAX_DEGREE == 512
        assert parse_function("(z^2)^256").degree() == 512
        for bad, why in (("z^513", "513, base degree 1"),
                         ("z^100000/2", "100000, base degree 1"),
                         ("(z^2)^257", "257, base degree 2"),
                         ("(1/(2+z))^1e300", "1e\\+300, base degree 1")):
            with pytest.raises(ParseError, match=f"degree cap 512 "
                               f"\\(exponent {why}\\)"):
                parse_function(bad)

    def test_overflowing_products_refused(self):
        # an infinite coefficient would make trim's tolerance infinite and
        # leave the zero polynomial
        for text in ("1e200*1e200*z", "(10+z)^400", "z - 1e200*1e200*z",
                     "1/(1e200*1e200*z + 2)"):
            with pytest.raises(ParseError, match="coefficient overflows"):
                parse_function(text)
        assert parse_function("1e150*1e150*z").to_polynomial().tolist() == \
            [0, 1e150 * 1e150]


def run_cli(capsys, *argv):
    code = 0
    try:
        cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("{")]
    return code, json.loads(lines[-1]) if lines else None, out


class TestCli:
    def test_exponent_literals(self, capsys):
        code, doc, _ = run_cli(capsys, "norm", "--b", "(1+z)/2",
                               "--f", "1e-3+z")
        assert code == 0 and doc["norm_sq_exact"] == "3002001/500000"
        for bad in ("1e", "1e+z", "1e999"):
            code, doc, _ = run_cli(capsys, "norm", "--b", "(1+z)/2",
                                   "--f", bad)
            assert code == 2 and doc["error"].startswith(f"--f {bad!r}")

    def test_power_above_cap_exit_two(self, capsys):
        code, doc, _ = run_cli(capsys, "mate", "--b", "z^100000/2")
        assert code == 2 and doc["error"] == (
            "--b 'z^100000/2': power above the degree cap 512 (exponent "
            "100000, base degree 1)")

    def test_overflowing_literal_exit_two(self, capsys):
        for argv, flag in ((("norm", "--b", "z/2", "--f", "1e200*1e200*z"),
                            "--f"),
                           (("mate", "--b", "1e200*1e200*z"), "--b"),
                           (("mate", "--b", "(10+z)^400"), "--b")):
            code, doc, _ = run_cli(capsys, *argv)
            assert code == 2 and doc["error"] == (
                f"{flag} {argv[-1]!r}: a coefficient overflows in a product "
                "or quotient"), argv

    def test_rational_error(self, capsys):
        # beside every exact read, and beside its refusal: the largest
        # |f_k - p_k/q_k| of the rationals taken for f, and the bound
        code, doc, _ = run_cli(capsys, "norm", "--b", "(1+z)/2",
                               "--f", "3.14159265358979+z")
        assert code == 0 and "norm_sq_exact" in doc
        assert doc["f_rational_error"] == {"max": 0.0,
                                           "bound": 3.14159265358979e-12}
        code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2",
                               "--f", "0.10000000000001 - z/3", "--n", "4")
        err = doc["f_rational_error"]
        assert "entries_exact" in doc and 0 < err["max"] <= err["bound"]
        code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2",
                               "--f", "1+1.5e-11z", "--n", "4")
        assert "entries_exact" not in doc and \
            doc["f_rational_error"] == {"max": 1.5e-11, "bound": 1e-12}
        for argv in (("--exact", "off", "norm", "--f", "z"),
                     ("norm", "--f", "z"), ("decay", "--f", "z")):
            i = argv.index("--f")
            code, doc, _ = run_cli(capsys, *argv[:i], "--b",
                                   "(1+z)/(3+z)" if "off" not in argv
                                   else "z/2", *argv[i:])
            assert code == 0 and "f_rational_error" not in doc, argv

    def test_closed_stdout_ends_quietly(self):
        # the reader is gone before the table is written
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hblab.cli", "decay", "--b", "(1+z)/2",
             "--f", "1-z", "--n", "200"], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_classify(self, capsys):
        code, doc, _ = run_cli(capsys, "classify", "--b", "(1+z)/2",
                               "--f", "1+z")
        assert code == 0 and doc["verdict"] == "cyclic"

    def test_exact_rational_mate(self, capsys):
        code, doc, _ = run_cli(capsys, "--exact", "on", "mate",
                               "--b", "z/(2+z)")
        assert code == 0 and doc["exact_backend"] is True
        code, doc, _ = run_cli(capsys, "--exact", "on", "mate",
                               "--b", "(1+z)/(3+z)")
        assert code == 1 and "irrational factor" in doc["error"]
        code, doc, _ = run_cli(capsys, "mate", "--b", "(1+z)/(3+z)")
        assert code == 0 and doc["exact_backend"] is False
        assert "irrational factor" in doc["exact_declined"]
        code, doc, _ = run_cli(capsys, "mate", "--b", "z/(2+z)")
        assert code == 0 and doc["exact_declined"] is None
        code, doc, _ = run_cli(capsys, "--exact", "off", "mate",
                               "--b", "z/(2+z)")
        assert doc["exact_declined"] == "not requested"

    def test_decay_constant_column(self, capsys):
        code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2",
                               "--f", "1-z", "--n", "12")
        assert code == 0
        assert all(abs(d - 2.0) < 1e-9 for _n, d in doc["entries"])

    def test_decay_size_exit_two(self, capsys):
        for mode, n in (("auto", "0"), ("auto", "-3"), ("off", "300"),
                        ("on", "129")):
            code, doc, _ = run_cli(capsys, "--exact", mode, "decay",
                                   "--b", "(1+z)/2", "--f", "1-z", "--n", n)
            assert code == 2 and "--n" in doc["error"], (mode, n)
        code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2",
                               "--f", "1-z", "--n", "129")
        assert code == 0 and len(doc["entries_exact"]) == 32

    def test_decay_bad_f_exit_two(self, capsys):
        for f, why in (("1/(2-z)", "not a polynomial"), ("0", "zero"),
                       ("0*z", "zero")):
            code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2",
                                   "--f", f, "--n", "12")
            assert code == 2 and "--f" in doc["error"], f
            assert why in doc["error"], f

    # b = z is extreme: the flag is read before the space is built
    @pytest.mark.parametrize("argv, flag", [
        (["norm", "--b", "z"], "--f"),
        (["classify", "--b", "z"], "--f"),
        (["certify", "--rule", "A", "--b", "z", "--e-arcs", "0.1:6.183",
          "--f-arcs", "-0.5:0.5"], "--f"),
        (["certify", "--rule", "B", "--b", "z"], "--f"),
        (["certify", "--rule", "C", "--b", "z"], "--g"),
        (["dirichlet", "--atoms", "0:1"], "--f"),
        (["theta", "--theta", "z^2"], "--f"),
    ])
    def test_non_polynomial_exit_two(self, capsys, argv, flag):
        code, doc, _ = run_cli(capsys, *argv, flag, "1/(2+z)")
        assert code == 2
        assert doc["error"] == f"{flag} '1/(2+z)' is not a polynomial"

    # a malformed literal is a usage error naming its flag, read before
    # any space is built
    @pytest.mark.parametrize("argv, flag, text, why", [
        (["classify", "--f", "1"], "--b", "(1+z",
         "missing closing parenthesis"),
        (["mate"], "--b", '{"type":', "Expecting value"),
        (["classify", "--b", "(1+z)/2"], "--f", "1+", "unexpected token"),
        (["norm", "--b", "z"], "--f", "z^-1", "nonnegative integer"),
        (["certify", "--rule", "C", "--b", "z"], "--g", "2..z",
         "bad number"),
        (["theta", "--f", "1"], "--theta", "z^", "nonnegative integer"),
    ])
    def test_malformed_literal_exit_two(self, capsys, argv, flag, text, why):
        code, doc, _ = run_cli(capsys, *argv, flag, text)
        assert code == 2
        assert doc["error"].startswith(f"{flag} {text!r}: ")
        assert why in doc["error"]

    def test_clark_atom(self, capsys):
        code, doc, _ = run_cli(capsys, "clark", "--b", "z(1+z)/2",
                               "--alpha", "0")
        assert code == 0
        assert len(doc["atoms"]) == 1
        theta, mass = doc["atoms"][0]
        assert abs(theta) < 1e-9 and abs(mass - 2 / 3) < 1e-4

    def test_mate_and_validate(self, capsys):
        code, doc, _ = run_cli(capsys, "mate", "--b", "z/2")
        assert code == 0
        assert doc["a"]["coeffs"][0][0] == pytest.approx(np.sqrt(3) / 2)
        code, doc, _ = run_cli(capsys, "validate", "--b", "(1+z)/2")
        assert code == 0 and doc["valid"]

    def test_validate_extreme_exits_one(self, capsys):
        code, doc, _ = run_cli(capsys, "validate", "--b", "z")
        assert code == 1 and "error" in doc

    def test_norm_exact(self, capsys):
        code, doc, _ = run_cli(capsys, "norm", "--b", "(1+z)/2",
                               "--f", "z^2")
        assert code == 0
        assert doc["norm_sq"] == pytest.approx(10.0)
        assert doc["norm_sq_exact"] == "10"

    def test_sigma(self, capsys):
        code, doc, _ = run_cli(capsys, "sigma", "--b", "z/2")
        assert code == 0 and doc["nested"]
        assert doc["lower_angles"] == [] and doc["upper_angles"] == []

    def test_sigma_with_atoms(self, capsys):
        code, doc, out = run_cli(capsys, "sigma", "--b", "(1+z)/2")
        assert code == 0 and json.loads(out) == doc
        assert len(doc["lower_angles"]) == 1
        assert abs(doc["lower_angles"][0]) < 1e-9
        assert doc["provenance"]["0.0"]["mass"] == pytest.approx(2.0)
        assert doc["upper_source"] == "unimodular numerator zeros"

    def test_sigma_power_shift_angles(self, capsys):
        for k in range(2, 7):
            code, doc, _ = run_cli(capsys, "sigma", "--b", f"z^{k}(1+z)/2")
            assert code == 0, k
            assert doc["lower_angles"] == [0.0], k
            assert list(doc["provenance"]) == ["0.0"], k

    def test_decay_states_backend(self, capsys):
        code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2", "--f",
                               "1+z", "--n", "4")
        assert code == 0 and doc["exact_backend"] is True
        assert doc["exact_declined"] is None
        assert doc["entries_exact"] == [[n, f"2/{2 * n + 1}"]
                                        for n in range(1, 5)]
        code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/(3+z)", "--f",
                               "1+z", "--n", "4")
        assert code == 0 and doc["exact_backend"] is False
        assert "irrational" in doc["exact_declined"]
        assert "entries_exact" not in doc
        tiny = '{"type": "poly", "coeffs": [[1, 0], [1.5e-11, 0]]}'
        code, doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2", "--f",
                               tiny, "--n", "4")
        assert code == 0 and doc["exact_backend"] is True
        assert doc["exact_declined"] == "f is not exactly representable"
        assert "entries_exact" not in doc
        code, doc, _ = run_cli(capsys, "--exact", "off", "decay", "--b",
                               "(1+z)/2", "--f", "1+z", "--n", "4")
        assert doc["exact_backend"] is False
        assert doc["exact_declined"] == "not requested"

    def test_invalid_grid_exit_two(self, capsys):
        # there is no sample count to set: --grid is an unknown option
        for argv in (["mate", "--b", "z/2"], ["theta", "--theta", "z^2",
                                                 "--f", "2+z"]):
            for n in ("100", "4096"):
                code, _doc, _ = run_cli(capsys, "--grid", n, *argv)
                assert code == 2, argv

    def test_invalid_tol_exit_two(self, capsys):
        argv = ["classify", "--b", "(1+z)/2", "--f", "1-z"]
        code, doc, _ = run_cli(capsys, *argv)
        assert code == 0 and doc["verdict"] == "not_cyclic"
        for tol in ("nan", "-1", "inf", "-inf"):
            code, doc, _ = run_cli(capsys, f"--tol={tol}", *argv)
            assert code == 2 and "--tol" in doc["error"], tol
        code, doc, _ = run_cli(capsys, "--tol", "0", *argv)
        assert code == 0

    def test_nonfinite_numbers_exit_two(self, capsys):
        cases = [
            (["certify", "--rule", "B", "--b", "z/2", "--f", "1+z",
              "--cover", "nan:1:0.5"], "--cover"),
            (["certify", "--rule", "B", "--b", "z/2", "--f", "1+z",
              "--cover", "0:1:nan"], "--cover"),
            (["certify", "--rule", "A", "--b", "(1+z)/2", "--f", "1+z",
              "--e-arcs", "nan:1", "--f-arcs", "0:1"], "--e-arcs"),
            (["certify", "--rule", "A", "--b", "(1+z)/2", "--f", "1+z",
              "--e-arcs", "0.1:6.183", "--f-arcs", "0:inf"], "--f-arcs"),
            (["dirichlet", "--atoms", "nan:1", "--f", "1+z"], "--atoms"),
            (["dirichlet", "--atoms", "0:nan", "--f", "1+z"], "--atoms"),
            (["dirichlet", "--atoms", "0:1,1:inf", "--f", "1+z"], "--atoms"),
            (["dirichlet", "--atoms", "0:1:2", "--f", "1+z"], "--atoms"),
            (["clark", "--b", "(1+z)/2", "--alpha", "nan"], "--alpha"),
            (["clark", "--b", "(1+z)/2", "--alpha=-inf"], "--alpha"),
            (["clark", "--b", "(1+z)/2", "--alpha", "x"], "--alpha"),
        ]
        for argv, flag in cases:
            code, doc, out = run_cli(capsys, *argv)
            assert code == 2 and flag in doc["error"], argv
            assert "NaN" not in out and "Infinity" not in out, argv

    def test_unwritable_csv_exit_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        for argv in (["decay", "--b", "(1+z)/2", "--f", "1-z", "--n", "20"],
                     ["clark", "--b", "z(1+z)/2", "--alpha", "0"]):
            code, doc, _ = run_cli(capsys, *argv, "--csv", str(target))
            assert code == 2 and doc["error"].startswith("--csv"), argv
            assert not target.exists()

    def test_tol_scoped_to_one_call(self, capsys):
        before = config.POINT_ZERO_TOL
        code, doc, _ = run_cli(capsys, "--tol", "0.5", "classify",
                               "--b", "(1+z)/2", "--f", "1-z")
        assert code == 0 and config.POINT_ZERO_TOL == before
        code, doc, _ = run_cli(capsys, "--tol", "0.5", "classify",
                               "--b", "(1+z)/2", "--f", "(")
        assert code == 2 and config.POINT_ZERO_TOL == before
        code, doc, _ = run_cli(capsys, "--tol", "0.5", "classify",
                               "--b", "z", "--f", "1-z")       # extreme b
        assert code == 1 and config.POINT_ZERO_TOL == before

    def test_certify_rules(self, capsys):
        code, doc, _ = run_cli(capsys, "certify", "--rule", "A",
                               "--b", "(1+z)/2", "--f", "1+z",
                               "--e-arcs", "0.1:6.183",
                               "--f-arcs=-0.5:0.5")
        assert code == 0 and doc["certified"]
        code, doc, _ = run_cli(capsys, "certify", "--rule", "B",
                               "--b", "z/2", "--f", "1+z")
        assert code == 0 and doc["certified"]
        code, doc, _ = run_cli(capsys, "certify", "--rule", "C",
                               "--b", "z/2", "--g", "1")
        assert code == 0 and doc["certified"]
        code, doc, _ = run_cli(capsys, "certify", "--rule", "B",
                               "--b", "z/2", "--f", "z")
        assert code == 1 and not doc["certified"]

    def test_dirichlet_and_theta(self, capsys):
        code, doc, _ = run_cli(capsys, "dirichlet", "--atoms", "0:1",
                               "--f", "1-z")
        assert code == 0
        assert doc["norm_sq"] == pytest.approx(3.0)
        assert doc["verdict"] == "not_cyclic"
        code, doc, _ = run_cli(capsys, "theta", "--theta", "z^2",
                               "--f", "2+z")
        assert code == 0 and doc["verdict"] == "cyclic"
        assert len(doc["atoms"]) == 2

    def test_theta_masses_closed_form(self, capsys):
        code, doc, _ = run_cli(capsys, "theta", "--theta", "z^3",
                               "--f", "2+z")
        assert code == 0 and len(doc["atoms"]) == 3
        assert all(abs(m - 1 / 3) <= 1e-12 for _a, m in doc["atoms"])

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--rule", "D", "--b", "z/2"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys):
        _, _, out1 = run_cli(capsys, "classify", "--b", "(1+z)/2",
                             "--f", "1+z")
        _, _, out2 = run_cli(capsys, "classify", "--b", "(1+z)/2",
                             "--f", "1+z")
        assert out1 == out2

    def test_csv_emission(self, capsys, tmp_path):
        target = tmp_path / "decay.csv"
        code, _doc, _ = run_cli(capsys, "decay", "--b", "(1+z)/2",
                                "--f", "1+z", "--n", "8",
                                "--csv", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "N,d2" and len(lines) == 9


NEGATIVE_VALUES = [
    (["clark", "--b", "z/2"], "--alpha", "-1e-3"),
    (["clark", "--b", "z/2"], "--alpha", "-.5"),
    (["certify", "--rule", "A", "--b", "(1+z)/2", "--f", "1+z",
      "--f-arcs", "0.6:1"], "--e-arcs", "-0.5:0.5"),
    (["certify", "--rule", "A", "--b", "(1+z)/2", "--f", "1+z",
      "--e-arcs", "0.1:6.183"], "--f-arcs", "-0.5:0.5"),
    (["certify", "--rule", "B", "--b", "z/2", "--f", "1+z"], "--cover",
     "-0.5:0.5:1e-3,1:2:0.5"),
    (["dirichlet", "--f", "1-z"], "--atoms", "-1e-1:1,2:0.5"),
    (["norm", "--b", "z/2"], "--f", "-1+z"),
    (["norm", "--b", "z/2"], "--f", "-z"),
    (["decay", "--b", "(1+z)/2", "--n", "4"], "--f", "-1+z/2"),
]


class TestNegativeValues:
    """A flag value that starts with a single '-' is the value, not an
    option: every hblab flag takes a value."""

    @pytest.mark.parametrize("argv, flag, value", NEGATIVE_VALUES)
    def test_space_form_is_the_equals_form(self, capsys, argv, flag, value):
        code, doc, out = run_cli(capsys, *argv, flag, value)
        assert doc is not None and "error" not in doc, (flag, out)
        assert code in (0, 1)
        code_eq, _doc, out_eq = run_cli(capsys, *argv, f"{flag}={value}")
        assert (code, out) == (code_eq, out_eq)

    def test_function_literal(self, capsys):
        code, doc, _ = run_cli(capsys, "norm", "--b", "z/2", "--f", "-1+z")
        assert code == 0 and doc["norm_sq_exact"] == "7/3"

    def test_readme_certify_example(self, capsys):
        code, doc, _ = run_cli(capsys, "certify", "--rule", "A",
                               "--b", "(1+z)/2", "--f", "1+z",
                               "--e-arcs", "0.1:6.183",
                               "--f-arcs", "-0.5:0.5")
        assert code == 0 and doc["certified"]
        # |1 + e^it| = 2 cos(t/2) is least at the ends of F = [-0.5, 0.5],
        # and a's zero at 1 is 0.1 from E = [0.1, 6.183]
        numbers = doc["report"]["evidence"][0]["numbers"]
        assert abs(numbers["f_min_on_F"] - 2 * np.cos(0.25)) <= 1e-12
        assert abs(numbers["a_zero_gap_to_E"] - 0.1) <= 1e-12
        assert "a_inverse_sq_integral_on_E" not in numbers

    def test_nonfinite_negative_names_the_flag(self, capsys):
        code, doc, _ = run_cli(capsys, "clark", "--b", "z/2",
                               "--alpha", "-inf")
        assert code == 2 and "--alpha" in doc["error"]

    def test_unknown_option_still_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["clark", "--b", "z/2", "--alpha", "0", "--bogus",
                      "-1e-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_value_is_a_usage_error_naming_the_flag(self, capsys):
        # a value that starts with '-' but is no valid value is refused as
        # that flag's value, as its '=' form is
        for argv, flag, value in (
                (["clark", "--b", "z/2"], "--alpha", "-x"),
                (["clark", "--b", "z/2"], "--alpha", "-e-3"),
                (["norm", "--b", "z/2"], "--f", "-h")):
            code, doc, out = run_cli(capsys, *argv, flag, value)
            assert code == 2 and flag in doc["error"], (flag, value)
            assert run_cli(capsys, *argv, f"{flag}={value}") == \
                (code, doc, out)


CORE = ["boundary", "config", "errors", "exact", "factor", "hb", "parse",
        "poly"]

# each README command but verify, and the analysis modules it loads
# beyond the core and cli
COMMAND_MODULES = [
    (["mate", "--b", "(1+z)/2"], []),
    (["validate", "--b", "z/2"], []),
    (["norm", "--b", "(1+z)/2", "--f", "z^2"], []),
    (["decay", "--b", "(1+z)/2", "--f", "1-z", "--n", "12"], ["cyclicity"]),
    (["classify", "--b", "(1+z)/2", "--f", "1+z"], ["cyclicity"]),
    (["clark", "--b", "z(1+z)/2", "--alpha", "0"], ["clark"]),
    (["sigma", "--b", "z/2"], ["clark", "sigma"]),
    (["certify", "--rule", "A", "--b", "(1+z)/2", "--f", "1+z",
      "--e-arcs", "0.1:6.183", "--f-arcs", "-0.5:0.5"],
     ["clark", "cyclicity", "sigma"]),
    (["certify", "--rule", "B", "--b", "z/2", "--f", "1+z"],
     ["clark", "cyclicity", "sigma"]),
    (["certify", "--rule", "C", "--b", "z/2", "--g", "1"],
     ["clark", "cyclicity", "sigma"]),
    (["dirichlet", "--atoms", "0:1", "--f", "1-z"], ["cyclicity", "models"]),
    (["theta", "--theta", "z^2", "--f", "2+z"],
     ["clark", "cyclicity", "models"]),
]


def loaded_modules(code: str, *args: str) -> list:
    """The hblab submodules, without the package prefix, that are in
    sys.modules after code runs in a fresh interpreter."""
    code += ("\nimport json, sys\nprint(json.dumps(sorted("
             "m[6:] for m in sys.modules if m.startswith('hblab.'))))")
    env = dict(os.environ, PYTHONPATH=str(
        Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestColdImports:
    """Each check runs in a fresh interpreter: the test process has
    loaded every module."""

    def test_only_verify_imports_acceptance(self):
        code = "from hblab import cli; cli.main(['mate', '--b', 'z/2'])"
        assert "acceptance" not in loaded_modules(code)

    def test_import_loads_the_core(self):
        assert loaded_modules("import hblab") == CORE

    @pytest.mark.parametrize("argv, extra", COMMAND_MODULES,
                             ids=[" ".join(a[:3]) for a, _ in
                                  COMMAND_MODULES])
    def test_command_loads_only_its_modules(self, argv, extra):
        code = ("import json, sys\nfrom hblab import cli\n"
                "assert cli.main(json.loads(sys.argv[1])) == 0")
        assert loaded_modules(code, json.dumps(argv)) == \
            sorted(CORE + ["cli"] + extra)

    def test_verify_passes_every_criterion(self, capsys):
        code, doc, _ = run_cli(capsys, "verify")
        assert code == 0 and doc["passed"] == 11 and doc["failed"] == []
