"""Tracing: self and total times add up; call counts repeat per seed."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layertrace

BENCH = Path(__file__).resolve().parents[1]


def test_self_and_total_times():
    tr = layertrace.Tracer()

    def leaf():
        time.sleep(0.01)

    def outer(n):
        if n:
            outer(n - 1)
        w_leaf()

    w_leaf = tr.wrap("m.leaf", leaf)
    outer = tr.wrap("m.outer", outer)
    outer(2)
    assert tr.calls == {"m.outer": 3, "m.leaf": 3}
    # recursion is counted once in total time, never in self time
    assert tr.total["m.outer"] >= tr.total["m.leaf"] >= 0.03
    assert tr.self_time["m.outer"] < 0.01
    assert abs(tr.total["m.outer"] - tr.self_time["m.outer"] -
               tr.total["m.leaf"]) < 1e-3


def test_install_wraps_every_namespace():
    import hblab
    from hblab import cyclicity, hb
    tr = layertrace.Tracer()
    try:
        layertrace.install(tr)
        assert cyclicity.make_element is hb.make_element is hblab.make_element
        sp = hblab.make_space([0.5, 0.5], use_exact=False)
        hblab.decay_table(sp, [1, 1], 4)
        assert tr.calls["hb.make_element"] == 5      # four columns and 1
        assert tr.calls["factor.fejer_riesz"] == 2
    finally:
        for mod in layertrace.hblab_modules():
            for attr, obj in list(vars(mod).items()):
                orig = getattr(obj, "__perfbench_original__", None)
                if orig is not None:
                    setattr(mod, attr, orig)


def traced_calls(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"]
    detail = json.loads((BENCH / "out" /
                         f"{workload}-seed{seed}-trace1.json").read_text())
    per_layer = {k: v["value"] for k, v in last["metrics"].items()
                 if k.endswith(".calls")}
    return per_layer, detail["layers"]["calls"]


@pytest.mark.parametrize("workload", ["exact_auto", "cli_cold"])
def test_traced_call_counts_repeat(workload):
    first = traced_calls(workload, 5)
    second = traced_calls(workload, 5)
    assert first == second
    assert sum(first[1].values()) > 0
