#!/usr/bin/env python3
"""Self-test of the benchmark on tiny instances.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the output checks reject corrupted outputs, that the traced layer self
times plus the untraced remainder add up to the traced task wall time, and
that the clique numbers the refine check takes as known match networkx.
The file name keeps it out of the repository's default pytest collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import cprank.cli  # noqa: E402
from tracer import SIZES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _main(argv: list[str]) -> int:
    return cprank.cli.main(argv)


def _tiny(name: str, work: Path):
    wl = WORKLOADS[name]
    insts = wl.instances(np.random.default_rng(5), tiny=True)
    for i, inst in enumerate(insts):
        inst.dir = work / f"{name}-{i}"
        inst.dir.mkdir(parents=True)
        for fname, text in inst.files.items():
            inst.write(fname, text)
    return wl, insts


def _edit(inst, fname: str, change) -> None:
    data = inst.read(fname)
    change(data)
    inst.write(fname, json.dumps(data))


def test_metrics_printed_with_units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for w in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
            assert set(res["metrics"]) == {m["name"] for m in spec[key]}, w["name"]
            for m in spec[key]:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"], m["name"]
                assert isinstance(got["value"], (int, float)), m["name"]
                assert f"{m['name']} " in proc.stdout, f"{m['name']} not printed"


def test_checks_reject_corrupted_outputs():
    work = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"

    def drop_point(data):
        members = data["cover"]["members"]
        gone = members[0][0]
        data["cover"]["members"] = [[p for p in m if p != gone] for m in members]

    def break_step(data):
        data["steps"][0]["ok"] = False

    def break_hom(data):
        data["hom_defect"] = 1e-3

    corruptions = {
        "refine": ("rf.out.json", drop_point),
        "roundtrip": ("e.out.json", break_step),
        "maps": ("rz.out.json", break_hom),
    }
    try:
        for name, (fname, change) in corruptions.items():
            wl, insts = _tiny(name, work)
            inst = insts[0]
            assert wl.run(_main, inst)
            assert wl.check(inst) == [], name
            _edit(inst, fname, change)
            assert wl.check(inst), f"{name}: corrupted {fname} passed the check"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_self_times_add_up():
    work = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    original = cprank.cli.cover_strict_order
    try:
        for name in WORKLOADS:
            wl, insts = _tiny(name, work)
            tracer = Tracer()
            tracer.install()
            try:
                for i, inst in enumerate(insts):
                    assert tracer.run_task(i, lambda: wl.run(_main, inst))
            finally:
                tracer.uninstall()
            s = tracer.summary()
            total = sum(s["layers"].values()) + s["untraced_s"]
            assert abs(total - s["task_wall_s"]) <= 1e-9 * max(1.0, s["task_wall_s"]), name
            assert s["spans"]["task"]["calls"] == len(insts)
            assert s["spans"]["cli.main"]["calls"] > 0
            # sizes are read in spans of their own, one per sized call, outside any layer
            sized = sum(s["spans"][n]["calls"] for n in SIZES if n in s["spans"])
            assert s["spans"]["trace.sizes"]["calls"] == sized, name
            if name == "refine":
                # cover_strict_order is called through the name cli imported
                assert s["spans"]["covers.cover_strict_order"]["calls"] > 0
        assert cprank.cli.cover_strict_order is original
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_known_clique_numbers():
    from workloads import Refine, clique_number

    insts = {i.name: i for i in Refine().instances(np.random.default_rng(0), tiny=False)}
    for name, omega in Refine.KNOWN_OMEGA.items():
        assert clique_number(insts[name].facts["members"]) == omega, name


if __name__ == "__main__":
    failed = 0
    for fn in (
        test_checks_reject_corrupted_outputs,
        test_self_times_add_up,
        test_metrics_printed_with_units,
        test_known_clique_numbers,
    ):
        try:
            fn()
            print(f"PASS {fn.__name__}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {fn.__name__}: {exc!r}")
    sys.exit(1 if failed else 0)
