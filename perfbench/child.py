"""Processes the benchmark starts; each runs hblab and nothing else heavy.

    child.py setup PLAN              time `import hblab` plus building the
                                     plan's spaces; print seconds as JSON
    child.py ops PLAN OUT SECONDS TRACE
                                     run a library workload: whole rounds
                                     of the plan's operations, every output
                                     checked; write latencies to OUT
    child.py cli OUT ARGS...         one hblab command with tracing on;
                                     counters to OUT, exit code passed on
    child.py acceptance OUT          acceptance.run_all() with tracing on

The plan (inputs plus references) is written by run.py; mpmath and sympy
are never imported here, so peak memory is that of hblab and numpy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import layertrace


def _load(path):
    return json.loads(Path(path).read_text())


def _dump(path, obj):
    Path(path).write_text(json.dumps(obj))


def fraction_pairs(pairs) -> list:
    """[re, im] pairs, as floats or as fraction strings, to exact
    (re, im) Fractions; the one decoder of the plan's coefficients."""
    return [(Fraction(re), Fraction(im)) for re, im in pairs]


def complexes(pairs) -> list:
    """[re, im] pairs to complex numbers."""
    return [complex(float(re), float(im)) for re, im in fraction_pairs(pairs)]


def build_spaces(hblab, plan) -> list:
    out = []
    for sp in plan["spaces"]:
        num = complexes(sp["num"])
        b = hblab.UnitCircleFunction.polynomial(num) if sp["den"] is None \
            else hblab.UnitCircleFunction.rational(num, complexes(sp["den"]))
        out.append(hblab.make_space(b, use_exact=sp["exact"]))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# library operations: each returns (callable doing the work, check of its
# result); only the callable is timed

def make_op(hblab, spaces, plan, op):
    space = spaces[op["space"]]
    sref = plan["space_refs"][op["space"]]
    cls = op["cls"]
    what = f"{cls} on {plan['spaces'][op['space']]['name']}"
    if cls == "sigma_bounds":
        return (lambda: hblab.sigma_bounds(space),
                lambda out: checks.sigma(out, sref, what))
    f = complexes(op["f"]) if "f" in op else None
    cref = op.get("ref")
    if cls == "assess":
        return (lambda: hblab.assess(space, f),
                lambda out: checks.assess(out, sref, cref, 32, what))
    if cls in ("decay128", "decay256", "decay32"):
        n = op["n"]

        def run():
            table = hblab.decay_table(space, f, n)
            return table, hblab.estimate_from_decay(table)

        def check(out):
            checks.decay_table(out[0], n, sref, cref, what)
            checks.decay_verdict(out[1], what)
        return run, check
    if cls == "element_pair":
        f1, f2 = complexes(op["f1"]), complexes(op["f2"])

        def run():
            e1 = hblab.make_element(space, f1)
            e2 = hblab.make_element(space, f2)
            return e1, e2, hblab.inner_product_exact(space, e1, e2)
        return run, lambda out: checks.element_pair(*out, cref, what)
    if cls == "decay_exact":
        n = op["n"]
        return (lambda: hblab.decay_table(space, f, n, use_exact=True),
                lambda out: checks.exact_decay(out, n, sref["norm1_exact"],
                                               cref["lower"], what))
    raise ValueError(f"unknown operation class {cls}")


class Runner:
    """Runs whole rounds of operations, timing each call and checking
    each output.  An operation that raises counts as failed; a check
    that fails makes the run incorrect.  Times are at the reference
    speed of calib.py."""

    def __init__(self, ops):
        import calib        # imports numpy: kept out of the set-up probe
        self.calib = calib
        self.ops = ops
        self.latencies = []     # (class, seconds)
        self.failed = 0
        self.errors = []

    def run_op(self, cls, run, check, timed=True):
        before = self.calib.sample() if timed else None
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # counted, reported, run continues
            self.failed += 1
            self.errors.append(f"{cls}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return
        dt = time.perf_counter() - t0
        if timed:
            kernel = (before + self.calib.sample()) / 2
            self.latencies.append((cls, self.calib.scaled(dt, kernel)))
        try:
            check(out)
        except checks.CheckError as exc:
            self.errors.append(f"check failed: {exc}")

    def rounds(self, seconds: float) -> int:
        """Whole rounds until `seconds` have passed; at least one."""
        t0 = time.perf_counter()
        done = 0
        while not done or time.perf_counter() - t0 < seconds:
            for cls, run, check in self.ops:
                self.run_op(cls, run, check)
            done += 1
        return done

    def summary(self) -> dict:
        return {"latencies": self.latencies, "failed": self.failed,
                "attempted": len(self.latencies) + self.failed,
                "errors": self.errors}


def mode_setup(plan_path):
    """Time the set-up, then scale it by kernel samples taken right
    after it in the same process (numpy is loaded by then)."""
    plan = _load(plan_path)
    t0 = time.perf_counter()
    import hblab
    build_spaces(hblab, plan)
    dt = time.perf_counter() - t0
    import calib
    kernel = sorted(calib.sample() for _ in range(3))[1]
    print(json.dumps({"setup_s": calib.scaled(dt, kernel)}))


def mode_ops(plan_path, out_path, seconds, traced):
    plan = _load(plan_path)
    import hblab
    spaces = build_spaces(hblab, plan)
    ops = [(op["cls"],) + make_op(hblab, spaces, plan, op) for op in plan["ops"]]
    warm = Runner(ops)
    seen = set()
    for cls, run, check in ops:        # one untimed call per class
        if cls not in seen:
            seen.add(cls)
            warm.run_op(cls, run, check, timed=False)
    result = {"warmup_errors": warm.errors, "warmup_failed": warm.failed}
    if not traced:
        runner = Runner(ops)
        result["rounds"] = runner.rounds(seconds)
        result.update(runner.summary())
        result["peak_rss_mb"] = peak_rss_mb()
        _dump(out_path, result)
        return
    # traced: untraced rounds for the overhead baseline and per-class
    # latency, then exactly one traced round on freshly built spaces
    base = Runner(ops)
    result["rounds"] = base.rounds(seconds / 2)
    result["untraced"] = base.summary()
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    spaces = build_spaces(hblab, plan)
    ops = [(op["cls"],) + make_op(hblab, spaces, plan, op) for op in plan["ops"]]
    traced_run = Runner(ops)
    float_read_calls = 0
    for op, (cls, run, check) in zip(plan["ops"], ops):
        before = tracer.calls["exact.mate_solve"]
        traced_run.run_op(cls, run, check)
        if op.get("read") == "float":
            float_read_calls += tracer.calls["exact.mate_solve"] - before
    result["traced"] = traced_run.summary()
    result["layers"] = tracer.stats()
    result["layers"]["events"]["exact.mate_solve.float_read_calls"] = \
        float_read_calls
    _dump(out_path, result)


def mode_cli(out_path, argv):
    import hblab.cli
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    code = 0
    try:
        code = hblab.cli.main(argv) or 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        _dump(out_path, tracer.stats())
    sys.exit(code)


def mode_acceptance(out_path):
    import hblab
    from hblab import acceptance
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    # run_all iterates a list of the original functions; point it at the
    # wrapped ones so each criterion is timed as a layer call
    acceptance.ALL_CRITERIA[:] = [getattr(acceptance, fn.__name__)
                                  for fn in acceptance.ALL_CRITERIA]
    results = acceptance.run_all()
    stats = tracer.stats()
    stats["passed"] = sum(r.passed for r in results)
    _dump(out_path, stats)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        mode_setup(argv[1])
    elif mode == "ops":
        mode_ops(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    elif mode == "cli":
        mode_cli(argv[1], argv[2:])
    elif mode == "acceptance":
        mode_acceptance(argv[1])
    else:
        raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    main(sys.argv[1:])
