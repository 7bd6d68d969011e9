#!/usr/bin/env python3
"""hblab benchmark: one workload (or all) for one seed.

    python3 perfbench/run.py --workload sweep_float --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads (see README.md): sweep_float, decay_long, exact_auto, cli_cold.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones.  Inputs come
from the seed; references come from mpmath, sympy and closed forms.
Run details go to perfbench/out/.  Every process started here runs one
operation at a time with BLAS and OpenMP pools pinned to one thread.
"""

from __future__ import annotations

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "HB_LAB_THREADS": "1"}
os.environ.update(PINNED)   # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep_float", "decay_long", "exact_auto", "cli_cold")
SETUP_PROBES = 11
CHILD_TIMEOUT = 170
CLI_TIMEOUT = 60
# Cold commands are timed between two cold baseline processes and read at
# the speed the host has when the baseline takes BASELINE_REFERENCE_MS
# (its median on the reference machine); see README.md, "Timing on a
# noisy host".
BASELINE = ["-c", "import numpy"]
BASELINE_REFERENCE_MS = 160.0


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def run_child(args, timeout=CHILD_TIMEOUT, **kw):
    """Run a Python child to completion (killed and reaped on timeout)."""
    return subprocess.run([sys.executable, *args], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, **kw)


def child(*args, timeout=CHILD_TIMEOUT):
    proc = run_child([str(HERE / "child.py"), *args], timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"child {args[0]} exited {proc.returncode}", 1)
    return proc


# ---------------------------------------------------------------------------
# plans: inputs from the seed plus references

def library_plan(workload: str, seed: int) -> dict:
    import inputs
    import refs
    from child import complexes
    plan = inputs.PLANS[workload](seed)
    plan["space_refs"] = []
    fns = []
    for sp in plan["spaces"]:
        full = refs.space_ref(sp)
        num, den = full.pop("_num"), full.pop("_den")
        points = full.pop("_points")
        if sp["exact"] == "auto":
            if not refs.exact_mate_is_pythagorean(sp):
                fail(f"closed-form mate of {sp['name']} is wrong", 1)
            full["norm1_exact"] = refs.exact_norm1_sq(sp)
        plan["space_refs"].append(full)
        fns.append((num, den, points))
    for op in plan["ops"]:
        num, den, points = fns[op["space"]]
        if op["cls"] == "element_pair":
            op["ref"] = refs.element_pair_ref(plan["spaces"][op["space"]], op)
        elif "f" in op:
            op["ref"] = refs.candidate_ref(num, den, complexes(op["f"]),
                                           points)
    return plan


def cli_plan(seed: int) -> dict:
    import inputs
    import refs
    plan = inputs.cli_cold(seed)
    for op in plan["ops"]:
        op["ref"] = refs.cli_ref(op)
    return plan


def write_plan(plan, tmp: Path) -> Path:
    path = tmp / "plan.json"
    path.write_text(json.dumps(plan))
    return path


# ---------------------------------------------------------------------------
# measurements shared by the workloads

def setup_seconds(plan_path) -> float:
    """Median of cold set-ups: `import hblab` plus building the spaces
    (no spaces for cli_cold), each in a fresh interpreter.  One unmeasured
    set-up first, so bytecode caches are written before timing."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        proc = child("setup", str(plan_path))
        if k:
            samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def cold_cli(argv, timeout=CLI_TIMEOUT):
    """One cold `python -m hblab.cli` process: (seconds, code, stdout, err)."""
    t0 = time.perf_counter()
    proc = run_child(["-m", "hblab.cli", *argv], timeout=timeout)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def baseline_seconds() -> float:
    """Wall time of one cold BASELINE process, which starts the
    interpreter and imports numpy but no hblab code."""
    t0 = time.perf_counter()
    proc = run_child(BASELINE, timeout=CLI_TIMEOUT)
    if proc.returncode != 0:
        fail(f"baseline process exited {proc.returncode}", 1)
    return time.perf_counter() - t0


def last_json(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def verify_seconds(errors) -> float:
    """Wall time of one cold `hblab verify`, not scaled (see README.md).

    A per-layer metric of the traced `cli_cold` run: as an end-to-end
    metric it would be measured in every workload's run, and one 10 s
    process per run read 0.10-0.25 of its median apart between runs.
    """
    import checks
    dt, code, out, err = cold_cli(["verify"], timeout=120)
    try:
        checks.verify(last_json(out) or {}, code)
    except (checks.CheckError, ValueError) as exc:
        errors.append(f"check failed: {exc}")
        sys.stderr.write(err)
    return dt


def p50_ms(latencies) -> float:
    return statistics.median(latencies) * 1e3


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# library workloads

def run_library(workload, seed, seconds, traced, tmp) -> dict:
    plan = library_plan(workload, seed)
    plan_path = write_plan(plan, tmp)
    setup_s = None if traced else setup_seconds(plan_path)
    out_path = tmp / "result.json"
    child("ops", str(plan_path), str(out_path), str(seconds),
          "1" if traced else "0")
    res = json.loads(out_path.read_text())
    if traced:
        errors = res["warmup_errors"] + res["untraced"]["errors"] + \
            res["traced"]["errors"]
        return layer_report(workload, res, errors)
    errors = res["warmup_errors"] + res["errors"]
    metrics = {**op_metrics(res["latencies"]),
               "setup_s": metric(setup_s, "s"),
               "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
    return {"errors": errors, "attempted": res["attempted"] +
            res["warmup_failed"], "failed": res["failed"] +
            res["warmup_failed"], "metrics": metrics,
            "detail": {"rounds": res["rounds"],
                       "class_p50_ms": class_p50(res["latencies"])}}


def op_metrics(rows) -> dict:
    """ops_per_s and op_p50_ms from rows that start (class, seconds)."""
    times = [row[1] for row in rows]
    return {"ops_per_s": metric(len(times) / sum(times), "1/s"),
            "op_p50_ms": metric(p50_ms(times), "ms")}


def class_p50(rows) -> dict:
    """Median time of each operation class, in ms."""
    by = {}
    for row in rows:
        by.setdefault(row[0], []).append(row[1])
    return {cls: p50_ms(v) for cls, v in by.items()}


# ---------------------------------------------------------------------------
# cold command line

def cli_round(plan, errors, tmp=None, stats=None):
    """One cold process per command, each followed by a cold baseline
    process; returns rows (name, seconds, failed, wall seconds).  A
    command's seconds are its wall time scaled by BASELINE_REFERENCE_MS
    over the mean of the baselines just before and just after it.  With
    `tmp` given, each command runs traced and its counters go to `stats`."""
    import checks
    rows = []
    before = baseline_seconds()
    for op in plan["ops"]:
        if tmp is not None:
            tpath = tmp / f"trace-{op['cls']}.json"
            t0 = time.perf_counter()
            proc = run_child([str(HERE / "child.py"), "cli", str(tpath),
                              *op["argv"]], timeout=CLI_TIMEOUT)
            dt, code, out, err = (time.perf_counter() - t0, proc.returncode,
                                  proc.stdout, proc.stderr)
            stats.append(json.loads(tpath.read_text()))
        else:
            dt, code, out, err = cold_cli(op["argv"])
        after = baseline_seconds()
        scale = BASELINE_REFERENCE_MS / 1e3 / ((before + after) / 2)
        before = after
        failed = code != 0
        if failed and not op["known_fault"]:
            errors.append(f"cli {op['cls']} exited {code}: "
                          f"{err.strip().splitlines()[-1:]}")
        if not failed:
            try:
                checks.cli(op["cls"], last_json(out), op["ref"])
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"check failed: cli {op['cls']}: {exc!r}")
        rows.append((op["cls"], dt * scale, failed, dt))
    return rows


def cli_rounds(plan, seconds, errors):
    rows, t0 = [], time.perf_counter()
    while not rows or time.perf_counter() - t0 < seconds:
        rows += cli_round(plan, errors)
    return rows


def run_cli(seed, seconds, traced, tmp) -> dict:
    plan = cli_plan(seed)
    plan_path = write_plan(plan, tmp)
    errors = []
    if traced:
        return cli_layer_report(plan, seconds, errors, tmp)
    setup_s = setup_seconds(plan_path)
    rows = cli_rounds(plan, seconds, errors)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {**op_metrics(rows),
               "setup_s": metric(setup_s, "s"),
               "peak_rss_mb": metric(peak, "MB")}
    return {"errors": errors, "attempted": len(rows),
            "failed": sum(row[2] for row in rows), "metrics": metrics,
            "detail": {"class_p50_ms": class_p50(rows),
                       "wall_op_p50_ms": p50_ms([row[3] for row in rows])}}


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics

def load_layer_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def start_up_probes() -> dict:
    """Interpreter start-up and the import breakdown from -X importtime."""
    bare = []
    for _ in range(5):
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        bare.append(time.perf_counter() - t0)
    hb, sp = [], []
    for _ in range(3):
        proc = run_child(["-X", "importtime", "-c", "import hblab"])
        cum, scipy_self = import_times(proc.stderr)
        hb.append(cum.get("hblab", 0.0))
        sp.append(scipy_self)
    return {"cli.interpreter_ms": p50_ms(bare),
            "cli.import_hblab_ms": statistics.median(hb) / 1e3,
            "cli.import_scipy_ms": statistics.median(sp) / 1e3}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(stderr: str):
    """Cumulative microseconds per top-level module and the summed self
    time of every scipy module, from `-X importtime` output."""
    cum, scipy_self = {}, 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if len(m.group(3)) == 1:
            cum[name] = cum_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_self += self_us
    return cum, scipy_self


def layer_values(stats: dict, names, extra: dict) -> dict:
    calls, total, self_ms = stats["calls"], stats["total_ms"], stats["self_ms"]
    events = stats.get("events", {})
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-6], 0)
        elif name.endswith(".total_ms"):
            out[name] = total.get(name[:-9], 0.0)
        elif name.endswith(".self_ms") and name.startswith("layer."):
            mod = name[len("layer."):-len(".self_ms")]
            out[name] = sum(v for k, v in self_ms.items()
                            if k.startswith(mod + "."))
        elif name.endswith(".self_ms"):
            out[name] = self_ms.get(name[:-8], 0.0)
        elif name in events:
            out[name] = events[name]
        else:
            out[name] = 0
    return out


def overhead(untraced_rows, traced_rows) -> dict:
    """ops_per_s with tracing off and on (same operations, reference
    speed) and the relative cost of tracing."""
    u = op_metrics(untraced_rows)["ops_per_s"]["value"]
    t = op_metrics(traced_rows)["ops_per_s"]["value"]
    return {"trace.untraced_ops_per_s": u, "trace.traced_ops_per_s": t,
            "trace.overhead_pct": 100.0 * (u / t - 1.0)}


def atom_yield(stats) -> float:
    """Clark measures that carry an atom, per measure built."""
    built = stats["calls"].get("clark.clark_measure", 0)
    return stats["events"].get("clark.measures_with_atoms", 0) / built \
        if built else 0.0


def layer_report(workload, res, errors) -> dict:
    stats = res["layers"]
    extra = start_up_probes()
    extra["clark.sweep_atom_yield"] = atom_yield(stats)
    for cls, v in class_p50(res["untraced"]["latencies"]).items():
        extra[f"{workload}.{cls}.p50_ms"] = v
    extra.update(overhead(res["untraced"]["latencies"],
                          res["traced"]["latencies"]))
    metrics = layer_values(stats, load_layer_names(), extra)
    return {"errors": errors, "metrics": metrics,
            "attempted": res["traced"]["attempted"],
            "failed": res["traced"]["failed"], "layers": stats}


def cli_layer_report(plan, seconds, errors, tmp) -> dict:
    import layertrace
    base = cli_rounds(plan, seconds / 2, errors)
    stats = []
    traced = cli_round(plan, errors, tmp=tmp, stats=stats)
    tpath = tmp / "trace-acceptance.json"
    child("acceptance", str(tpath), timeout=120)
    acc = json.loads(tpath.read_text())
    if acc.pop("passed") != 11:
        errors.append("check failed: in-process acceptance did not pass 11")
    merged = layertrace.merge(stats + [acc])
    extra = start_up_probes()
    extra["cli.verify_s"] = verify_seconds(errors)
    for cls, v in class_p50(base).items():
        extra[f"cli.{cls}.p50_ms"] = v
    extra["clark.sweep_atom_yield"] = atom_yield(merged)
    extra.update(overhead(base, traced))
    metrics = layer_values(merged, load_layer_names(), extra)
    return {"errors": errors, "metrics": metrics, "attempted": len(traced),
            "failed": sum(row[2] for row in traced), "layers": merged}


# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, traced) -> dict:
    """One run; its plan and intermediate files live in a temporary
    directory under perfbench/out/ that is removed afterwards."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if workload == "cli_cold":
            return run_cli(seed, seconds, traced, Path(tmp))
        return run_library(workload, seed, seconds, traced, Path(tmp))


def units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hblab" / "__init__.py").is_file():
        fail(f"no hblab sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root")
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    return report(args.workload, args.seed, args.trace, res)


def report(workload, seed, trace, res) -> int:
    unit = units()
    metrics = {k: v if isinstance(v, dict) else metric(v, unit.get(k, ""))
               for k, v in res["metrics"].items()}
    detail = {k: v for k, v in res.items() if k != "metrics"}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"metrics": metrics, **detail}, indent=1))
    for err in res["errors"]:
        print(f"perfbench: {workload}: {err}", file=sys.stderr)
    correct = not res["errors"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one summary line at the end."""
    code, total = 0, {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            timeout=900)
        sys.stderr.write(proc.stderr)
        res = last_json(proc.stdout)
        if res is None:
            print(f"{w}: no result (exit {proc.returncode})")
            code = 1
            total["correct"] = False
            continue
        print(f"{w}: {json.dumps(res)}")
        code = code or proc.returncode
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{w}.{k}"] = v
    print(json.dumps(total))
    return code


if __name__ == "__main__":
    sys.exit(main())
