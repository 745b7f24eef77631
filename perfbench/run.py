#!/usr/bin/env python3
"""Task benchmark of the ``cprank`` CLI.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  One workload runs in this process: set-up
(import, input generation, file writing, one warm-up task; repeated and the
median reported; the import is timed in a fresh interpreter each time), then
whole passes over the workload's fixed task list for about ``--seconds``, as
a closed loop with one client that calls ``cprank.cli.main(argv)``
in-process.  A short reference kernel that uses no cprank code is timed
between every two tasks, and each task latency is divided by the reference
time around it.  The outputs of the last pass are checked after timing
stops.  ``--workload all`` runs every workload, each in a fresh process, and
prints a table.

With ``--trace 0`` the end-to-end metrics are printed: per task, the median
over the passes of its latency in reference units; then their sum
(``pass_ref``), their geometric mean (``task_geomean_ref``) and the mean of
the slowest tenth (``task_tail_ref``); ``setup_s`` and ``peak_rss_mb``.  The
same aggregates in ms, and the p50 and p90 of all task latencies, are
printed and recorded but not gated.  With ``--trace 1`` one warm pass is
discarded, then untraced and traced passes (see ``tracer.py``) alternate, at
least two of each, and the per-layer metrics of the traced passes are
printed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.perfbench_out/`` and are deleted at the end; the run record (metrics,
versions, output digest, trace summary) stays there.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# one BLAS thread: the benchmark runs one client with no extra threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, cprank.cli; print(time.perf_counter() - t)"
# an untraced run makes at least this many passes
MIN_PASSES = 3

# The reference kernel: fixed work of the kinds cprank spends its time on
# (Python bytecode, small LAPACK calls, JSON), using no cprank code.  An
# untraced run times it between every two tasks, and the end-to-end task
# metrics are task latencies over the reference time around each task: the
# host's speed moves by up to half within seconds, and the ratio cancels
# most of that, where a time in ms keeps all of it.
_REF_RNG = random.Random(0)
_REF_MATRIX = [[_REF_RNG.random() for _ in range(24)] for _ in range(24)]
_REF_DOC = {str(i): [i * 0.5, {"k": i, "v": [i, -i]}] for i in range(300)}


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel (about 5 ms)."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    a = np.array(_REF_MATRIX)
    a = a + a.T
    for _ in range(20):
        np.linalg.eigh(a)
    json.loads(json.dumps(_REF_DOC))
    return time.perf_counter() - t0


def tail_count(n: int) -> int:
    """How many of n tasks the tail covers: the slowest tenth, at least two."""
    return max(2, -(-n // 10))


def tail_mean(values: list[float]) -> float:
    """Mean of the slowest tail_count(len(values)) values."""
    return statistics.fmean(sorted(values)[-tail_count(len(values)):])


def tail_percentile(n: int) -> float:
    """Highest of p50, p75, p90, p95, p99 with at least ten of n samples beyond it."""
    return max((p for p in (75.0, 90.0, 95.0, 99.0) if n * (100.0 - p) / 100.0 >= 10.0), default=50.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))
    return s[int(rank) - 1]


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version"), "threads": None}
    for lib in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*.so*"):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def import_seconds() -> float:
    """Time to import numpy and cprank.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def record_env() -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def run_workload(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import cprank.cli
    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"

    def main(argv: list[str]) -> int:
        return cprank.cli.main(argv)

    errors: list[str] = []

    def attempt(inst) -> bool:
        try:
            return wl.run(main, inst)
        except Exception:  # a task that raises is a failed task; the loop goes on
            errors.append(f"{inst.name}: {traceback.format_exc(limit=3)}")
            return False

    # -- set-up, repeated; the median is reported --------------------------
    # Each repeat imports cprank in a fresh interpreter (timed there), then
    # generates and writes the inputs and runs one warm-up task here.
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        insts = wl.instances(np.random.default_rng(args.seed), args.tiny)
        for i, inst in enumerate(insts):
            inst.dir = work / f"{i:02d}-{inst.name}"
            inst.dir.mkdir(parents=True)
            for fname, text in inst.files.items():
                inst.write(fname, text)
        attempt(insts[0])
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(i + s for i, s in zip(imports, setups))

    # -- timed passes --------------------------------------------------------
    lat: list[float] = []  # task latencies in s, pass after pass
    rel: list[float] = []  # the same over the reference time around each task
    ref: list[float] = []  # reference times in s
    bad: list[bool] = []

    def one_pass(tracer: Tracer | None = None, probe: bool = False) -> float:
        """Run every task once; with probe, time the reference kernel before
        the first task and after each task."""
        p0 = time.perf_counter()
        probes = [reference_seconds()] if probe else []
        for i, inst in enumerate(insts):
            s = time.perf_counter()
            ok = tracer.run_task(i, lambda: attempt(inst)) if tracer else attempt(inst)
            lat.append(time.perf_counter() - s)
            bad.append(not ok)
            if probe:
                probes.append(reference_seconds())
        if probe:
            # task i ran between probes i and i + 1; it is divided by the
            # median of those two and their outer neighbours
            ref.extend(probes)
            for i, t in enumerate(lat[-len(insts) :]):
                rel.append(t / statistics.median(probes[max(0, i - 1) : i + 3]))
        return time.perf_counter() - p0

    def done(wall: float, n: int, min_n: int) -> bool:
        """Stop at the pass (or round) boundary nearest to --seconds."""
        return n >= min_n and wall + wall / n / 2 > args.seconds

    summary = None
    if args.trace:
        # One discarded warm pass, then untraced and traced passes in turn,
        # the tracer installed for each traced pass only, at least two of
        # each; the overhead compares the medians of their pass times.
        warm_s = one_pass()
        tracer = Tracer()
        plain_s: list[float] = []
        traced_s: list[float] = []
        t0 = time.perf_counter()
        while not done(time.perf_counter() - t0, len(traced_s), 2):
            plain_s.append(one_pass())
            tracer.install()
            try:
                traced_s.append(one_pass(tracer))
            finally:
                tracer.uninstall()
        n_pass = len(traced_s)
        pass_s = {"warm": warm_s, "untraced": plain_s, "traced": traced_s}
        summary = tracer.summary()
        summary["overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        summary["passes"] = n_pass
    else:
        pass_s = []
        t0 = time.perf_counter()
        while not done(time.perf_counter() - t0, len(pass_s), MIN_PASSES):
            pass_s.append(one_pass(probe=True))
        n_pass = len(pass_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks and digest, untimed --------------------------------------------
    t_check = time.perf_counter()
    problems: dict[str, list[str]] = {}
    digest = hashlib.sha256()
    for inst in insts:
        try:
            found = wl.check(inst)
        except Exception:  # a missing or malformed output fails the check
            found = [traceback.format_exc(limit=3)]
        if found:
            problems[inst.name] = found
        for fname in wl.outputs:
            path = inst.dir / fname
            if path.exists():
                digest.update(f"{inst.name}/{fname}\n".encode())
                digest.update(path.read_bytes())
    check_s = time.perf_counter() - t_check
    L = len(insts)
    failed = sum(1 for j, b in enumerate(bad) if b or insts[j % L].name in problems)
    attempted = len(bad)

    # per task of the list, the median over the passes
    task_ms = [1e3 * statistics.median(lat[i::L]) for i in range(L)]
    task_ref = [statistics.median(rel[i::L]) for i in range(L)] if rel else []
    if summary is None:
        metrics = {
            "pass_ref": {"value": sum(task_ref), "unit": "ref"},
            "task_geomean_ref": {"value": statistics.geometric_mean(task_ref), "unit": "ref"},
            "task_tail_ref": {"value": tail_mean(task_ref), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        metrics = per_layer_metrics(summary, LAYERS, n_pass)
        tracer_file = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.write(tracer_file)

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": record_env(),
        "task_list": [inst.name for inst in insts],
        "task_median_ms": {inst.name: v for inst, v in zip(insts, task_ms)},
        "task_median_ref": {inst.name: v for inst, v in zip(insts, task_ref)},
        "ref_ms": {"median": 1e3 * statistics.median(ref), "min": 1e3 * min(ref),
                   "max": 1e3 * max(ref)} if ref else None,
        # the same aggregates in time on this host, plus the median and the
        # highest percentile with ten tasks beyond it over all task latencies
        # of the run; not gated, the host's speed moves them
        "ms_metrics": {
            "tasks_per_s": 1e3 * L / sum(task_ms),
            "task_geomean_ms": statistics.geometric_mean(task_ms),
            "task_tail_ms": tail_mean(task_ms),
            "task_p50_ms": 1e3 * percentile(lat, 50.0),
            "task_ptail_ms": 1e3 * percentile(lat, tail_percentile(len(lat))),
        } if summary is None else None,
        "ptail": tail_percentile(len(lat)),
        "passes": n_pass,
        "pass_s": pass_s,
        "tasks": len(lat),
        "task_ms": [1e3 * x for x in lat],
        "task_ref": rel,
        "setup_runs_s": setups,
        "import_probes_s": imports,
        "import_s": import_s,
        "check_s": check_s,
        "output_sha256": digest.hexdigest(),
        "correct": not problems and not errors,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "metrics": metrics,
    }
    if summary is not None:
        result["trace_summary"] = {k: v for k, v in summary.items() if k != "spans"}
        result["spans"] = summary["spans"]
    shutil.rmtree(work, ignore_errors=True)
    return result


def per_layer_metrics(summary: dict, layers: tuple[str, ...], n_pass: int) -> dict:
    """Per-layer metrics, per pass over the task list (counts repeat exactly)."""
    from tracer import METRIC_SIZES, METRIC_SPANS

    out: dict[str, dict] = {}
    for layer in layers:
        out[f"layer.{layer}.self_s"] = {"value": summary["layers"][layer] / n_pass, "unit": "s"}
    out["trace.overhead_frac"] = {"value": summary["overhead_frac"], "unit": "ratio"}
    spans = summary["spans"]
    for name, fields in METRIC_SPANS.items():
        s = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = {"value": s["calls"] / n_pass, "unit": "count"}
            elif f in ("total_s", "self_s"):
                out[f"{name}.{f}"] = {"value": s[f] / n_pass, "unit": "s"}
    for key, unit in METRIC_SIZES.items():
        value = summary["sizes"].get(key, 0.0)
        if not key.endswith(".clique_size"):
            value /= n_pass
        out[key] = {"value": value, "unit": unit}
    return out


def print_report(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"passes {res['passes']}  tasks {res['tasks']} ({len(res['task_list'])} per pass)")
    print(f"failed_frac    {res['failed'] / res['attempted']:.6g} ratio  "
          f"({res['failed']} of {res['attempted']} tasks failed; correct {res['correct']})")
    for inst, found in res["problems"].items():
        print(f"  check failed: {inst}: {found}")
    for err in res["errors"][:5]:
        print(f"  task raised: {err}")
    m = res["metrics"]
    if not res["trace"]:
        for name, v in m.items():
            note = ""
            if name == "task_tail_ref":
                note = f"  (mean of the slowest {tail_count(len(res['task_list']))} of {len(res['task_list'])} tasks)"
            print(f"{name:16s} {v['value']:.6g} {v['unit']}{note}")
        print(f"  in time on this host (not gated): reference kernel {res['ref_ms']['median']:.4g} ms; "
              + ", ".join(f"{k} {v:.4g}" for k, v in res["ms_metrics"].items())
              + f" (p{res['ptail']:g} of {res['tasks']} task latencies)")
    else:
        layers = {k: v["value"] for k, v in m.items() if k.startswith("layer.")}
        top = max(layers, key=layers.get)
        total = sum(layers.values())
        print(f"trace.overhead_frac {m['trace.overhead_frac']['value']:.4g} ratio")
        print(f"largest layer self time: {top} ({layers[top]:.4g} s per pass, "
              f"{layers[top] / total:.1%} of traced self time)")
        for name, v in m.items():
            print(f"  {name} {v['value']:.6g} {v['unit']}")
    print(f"output sha256 {res['output_sha256']}")


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}")
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for name, res in rows:
        print(f"== {name}: attempted {res['attempted']} failed {res['failed']} "
              f"failed_frac {res['failed'] / res['attempted']:.6g} ratio")
        for metric, v in res["metrics"].items():
            print(f"   {metric} {v['value']:.6g} {v['unit']}")
    ok = all(res["correct"] for _, res in rows)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{n}.{k}": v for n, r in rows for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="refine, roundtrip, maps or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny instances (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cprank" / "cli.py").is_file():
        print("perfbench: src/cprank not found; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json", "w") as fh:
        json.dump(res, fh, indent=1)
    print_report(res)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
