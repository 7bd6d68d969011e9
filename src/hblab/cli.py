"""Command-line front end.

Every subcommand reads function literals (infix or structured JSON),
writes one JSON document to stdout, and optionally CSV tables to files.
Exit codes: 0 success, 1 domain error or failed certificate (with a
machine-readable reason), 2 usage error, 141 stdout closed before the
output was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# each handler imports the analysis module it calls, so a command loads
# only the modules it runs
from . import config, hb, poly
from .boundary import Arc, UnitCircleFunction
from .errors import HBLabError
from .parse import ParseError, parse_function


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, default=_default), flush=True)


def _default(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_default(v) if isinstance(v, complex) else float(v)
                for v in x]
    if hasattr(x, "to_dict"):
        return x.to_dict()
    return str(x)


def _fail(reason: str, code: int = 1):
    _emit({"error": reason})
    raise SystemExit(code)


def _exact_mode(args):
    return {"auto": "auto", "on": True, "off": False}[args.exact]


def _function(args, flag: str) -> UnitCircleFunction:
    """--flag's function literal; a malformed one exits 2 naming it."""
    try:
        return parse_function(getattr(args, flag))
    except (ParseError, json.JSONDecodeError) as exc:
        _fail(f"--{flag} {getattr(args, flag)!r}: {exc}", 2)


def _space(args) -> hb.HbSpace:
    return hb.make_space(_function(args, "b"), _exact_mode(args))


def _polynomial(args, flag: str) -> UnitCircleFunction:
    """The function given by --f or --g, which must be a polynomial:
    anything else exits 2 naming the flag."""
    fn = _function(args, flag)
    if not fn.is_polynomial():
        _fail(f"--{flag} {getattr(args, flag)!r} is not a polynomial", 2)
    return fn


def _finite(text: str, flag: str, form: str) -> tuple:
    """text as colon-separated floats in the given form, all finite; any
    other text exits 2 naming the flag."""
    try:
        item = tuple(float(x) for x in text.split(":"))
    except ValueError:
        item = ()
    if len(item) != form.count(":") + 1 or \
            not all(map(math.isfinite, item)):
        _fail(f"{flag}: {text!r} is not {form} in finite numbers", 2)
    return item


def _numbers(text: str, flag: str, form: str) -> list:
    """The comma-separated items of a flag, each read by _finite."""
    return [_finite(part, flag, form) for part in text.split(",")] \
        if text else []


def _parse_arcs(text: str, flag: str):
    return [Arc.from_angles(s, e) for s, e in
            _numbers(text, flag, "start:end")]


def _parse_cover(text: str):
    return [(Arc.from_angles(s, e), eta) for s, e, eta in
            _numbers(text, "--cover", "start:end:eta")]


def _parse_atoms(text: str):
    return [(np.exp(1j * theta), w) for theta, w in
            _numbers(text, "--atoms", "theta:weight")]


def _write_csv(path: str, header, rows):
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.12g}" if isinstance(v, float)
                                  else str(v) for v in row) + "\n")
    except OSError as exc:
        _fail(f"--csv: cannot write {path!r}: {exc.strerror or exc}", 2)


def _fn_dict(fn: UnitCircleFunction) -> dict:
    return fn.to_dict()


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_mate(args):
    sp = _space(args)
    _emit({"b": _fn_dict(sp.b), "a": _fn_dict(sp.a),
           "pythagorean_residual": sp.pythagorean_residual(),
           "exact_backend": sp.exact is not None,
           "exact_declined": sp.exact_declined})


def cmd_validate(args):
    try:
        sp = _space(args)
    except HBLabError as exc:
        _fail(str(exc))
    _emit({"valid": True, "nonextreme": True,
           "pythagorean_residual": sp.pythagorean_residual(),
           "exact_backend": sp.exact is not None,
           "exact_declined": sp.exact_declined,
           "defect_points_angle": [config.circle_angle(z)
                                   for z in hb.defect_spectrum(sp)]})


def cmd_norm(args):
    f = _polynomial(args, "f")
    sp = _space(args)
    el = hb.make_element(sp, f)
    out = {"norm_sq": el.norm2,
           "mate_coeffs": [[c.real, c.imag] for c in el.mate]}
    ex = el.norm2_exact
    if ex is not None:
        out["norm_sq_exact"] = str(ex)
    if sp.exact is not None:
        out["f_rational_error"] = _rational_error(el.f)
    _emit(out)


def _rational_error(f) -> dict:
    """How far f's coefficients are from the rationals an exact read
    takes for them, and the bound that decides whether it takes them."""
    _ints, error, bound = hb.rationalize(f)
    return {"max": error, "bound": bound}


def cmd_decay(args):
    from . import cyclicity
    cap = cyclicity.EXACT_TABLE_MAX_N if args.exact == "on" else \
        cyclicity.TABLE_MAX_N
    if not 1 <= args.n <= cap:
        _fail(f"--n {args.n} is outside 1..{cap} (--exact {args.exact})", 2)
    f = _polynomial(args, "f")
    if poly.degree(f.to_polynomial()) < 0:
        _fail("--f is zero: a decay table needs a nonzero f", 2)
    if f.degree() + args.n > cyclicity.TABLE_MAX_ROWS:
        _fail(f"deg f + N = {f.degree()} + {args.n} exceeds "
              f"{cyclicity.TABLE_MAX_ROWS} (--f, --n)", 2)
    sp = _space(args)
    table = cyclicity.decay_table(sp, f, args.n,
                                  use_exact=_exact_mode(args))
    out = {"entries": table.csv_rows(), "norm1_sq": table.norm1_sq,
           "near_dependent_columns": table.ridge_flags,
           "exact_backend": sp.exact is not None,
           "exact_declined": sp.exact_declined}
    if len(table.entries) >= 20:
        out["verdict"] = cyclicity.estimate_from_decay(table).verdict
    else:
        out["verdict"] = "table too short for the estimator"
    if table.exact_entries is not None:
        out["entries_exact"] = [[n, str(d)] for n, d in table.exact_entries]
    elif sp.exact is not None:
        out["exact_declined"] = "f is not exactly representable"
    if sp.exact is not None:
        out["f_rational_error"] = _rational_error(table.f)
    if args.csv:
        _write_csv(args.csv, ["N", "d2"], table.csv_rows())
    _emit(out)


def cmd_classify(args):
    from . import cyclicity
    f = _polynomial(args, "f")
    sp = _space(args)
    rep = cyclicity.classify_finite_defect(sp, f)
    _emit(rep.to_dict())


def cmd_clark(args):
    from . import clark
    theta, = _finite(args.alpha, "--alpha", "an angle")
    sp = _space(args)
    cm = clark.clark_measure(sp, complex(np.exp(1j * theta)))
    out = {"alpha_angle": theta % (2 * np.pi),
           "atoms": [[config.circle_angle(z), m] for z, m in cm.atoms],
           "atom_mass_errors": cm.atom_errors,
           "ac_mass": cm.ac_mass, "total_mass": cm.total_mass,
           "herglotz_mass": cm.herglotz_mass,
           "absolutely_continuous": cm.is_absolutely_continuous}
    if args.csv:
        _write_csv(args.csv, ["alpha_angle", "type", "theta", "value"],
                   cm.csv_rows())
    _emit(out)


def cmd_sigma(args):
    from . import sigma
    sp = _space(args)
    bounds = sigma.sigma_bounds(sp)
    _emit({"lower_angles": [config.circle_angle(z) for z in bounds.lower],
           "upper_angles": [config.circle_angle(z) for z in bounds.upper],
           "provenance": bounds.provenance,
           "upper_source": bounds.upper_source,
           "base_measure_absolutely_continuous":
               bounds.base_measure_absolutely_continuous,
           "nested": bounds.consistent()})


def cmd_certify(args):
    from . import cyclicity
    flag = "g" if args.rule == "C" else "f"
    if getattr(args, flag) is None:
        _fail(f"rule {args.rule} needs --{flag}", 2)
    fn = _polynomial(args, flag)
    sp = _space(args)
    if args.rule == "A":
        outcome = cyclicity.theorem_a_check(
            sp, fn, _parse_arcs(args.e_arcs, "--e-arcs"),
            _parse_arcs(args.f_arcs, "--f-arcs"))
    elif args.rule == "B":
        outcome = cyclicity.theorem_b_check(sp, fn, _parse_cover(args.cover))
    else:
        big_f, outcome = cyclicity.theorem_c_check(sp, fn)
    doc = {"rule": args.rule, "certified": outcome.ok,
           "report": outcome.report.to_dict(), "reasons": outcome.reasons}
    if args.rule == "C" and outcome.ok:
        doc["outer_image"] = _fn_dict(outcome.certificate)
    _emit(doc)
    if not outcome.ok:
        raise SystemExit(1)


def cmd_dirichlet(args):
    from . import models
    f = _polynomial(args, "f").to_polynomial()
    spec = models.DirichletSpec(_parse_atoms(args.atoms))
    out = {"dirichlet_integral": models.dirichlet_integral(spec, f),
           "norm_sq": models.dirichlet_norm(spec, f),
           "verdict": models.dirichlet_cyclic(spec, f).verdict}
    ex = models.dirichlet_norm_exact(spec, f)
    if ex is not None:
        out["norm_sq_exact"] = str(ex)
    _emit(out)


def cmd_theta(args):
    from . import models
    f = _polynomial(args, "f").to_polynomial()
    model = models.theta_model(_function(args, "theta"))
    _emit({"atoms": [[config.circle_angle(z), m] for z, m in model.atoms],
           "model_dimension": model.model_dimension,
           "mass_total": model.herglotz_mass,
           "verdict": models.theta_cyclic(model, f).verdict})


def cmd_verify(args):
    from . import acceptance    # only verify compiles the suite
    results = acceptance.run_all(echo=True)
    ok = all(r.passed for r in results)
    _emit({"passed": sum(r.passed for r in results),
           "failed": [r.name for r in results if not r.passed],
           "total_seconds": round(sum(r.elapsed for r in results), 2)})
    raise SystemExit(0 if ok else 1)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hblab",
        description="de Branges-Rovnyak space laboratory: mates, Clark "
                    "measures, kernels, and cyclicity certificates")
    ap.add_argument("--exact", choices=("auto", "on", "off"), default="auto",
                    help="exact rational backend mode")
    ap.add_argument("--tol", type=float, default=None,
                    help="point-vanishing tolerance for this command "
                         "(finite, >= 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        for argname, kw in arguments.items():
            p.add_argument(f"--{argname.replace('_', '-')}", **kw)
        p.set_defaults(handler=fn)
        return p

    add("mate", cmd_mate, b={"required": True})
    add("validate", cmd_validate, b={"required": True})
    add("norm", cmd_norm, b={"required": True}, f={"required": True})
    add("decay", cmd_decay, b={"required": True}, f={"required": True},
        n={"type": int, "default": 24}, csv={"default": None})
    add("classify", cmd_classify, b={"required": True}, f={"required": True})
    add("clark", cmd_clark, b={"required": True},
        alpha={"required": True, "help": "angle of alpha in radians"},
        csv={"default": None})
    add("sigma", cmd_sigma, b={"required": True})
    add("certify", cmd_certify, rule={"required": True,
                                      "choices": ("A", "B", "C")},
        b={"required": True}, f={"default": None}, g={"default": None},
        e_arcs={"default": None, "help": "start:end,start:end (radians)"},
        f_arcs={"default": None}, cover={"default": None,
                                         "help": "start:end:eta,..."})
    add("dirichlet", cmd_dirichlet, atoms={"required": True,
                                           "help": "theta:weight,..."},
        f={"required": True})
    add("theta", cmd_theta, theta={"required": True}, f={"required": True})
    add("verify", cmd_verify)
    return ap


def _glue_values(argv: list) -> list:
    """argv with `--flag -value` written `--flag=-value`.  argparse takes
    a value that starts with '-' for an option unless it is a plain
    negative decimal, so `--alpha -1e-3`, `--f-arcs -0.5:0.5` or
    `--f -1+z` would be a usage error; every hblab flag takes a value, so
    an argument that starts with a single '-' is joined to the flag
    before it instead."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and len(out[-1]) > 2 and \
                "=" not in out[-1] and arg.startswith("-") and \
                not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


EXIT_BROKEN_PIPE = 141      # 128 + SIGPIPE, as a shell reports it


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): end quietly, and let
        # the flush at exit write what is left to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(EXIT_BROKEN_PIPE) from None


def _run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise SystemExit(2)
        raise
    saved, tol = config.POINT_ZERO_TOL, args.tol
    if tol is not None and not 0 <= tol < float("inf"):
        _fail(f"--tol: {tol} is not a finite nonnegative number", 2)
    try:
        config.POINT_ZERO_TOL = saved if tol is None else tol
        args.handler(args)
    except SystemExit:
        raise
    except (HBLabError, ValueError, ZeroDivisionError,
            ArithmeticError) as exc:
        _fail(f"{type(exc).__name__}: {exc}")
    finally:
        config.POINT_ZERO_TOL = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
