#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  It builds perfbench/bench/pbench.exe
from source with dune, then runs the workload's benchmark models, each
measured run in a fresh process with a private, initially empty
TMPDIR and checkpoint directory that is removed afterwards, so no state
or cache carries from one run to the next.

--trace 0 prints the end-to-end metrics (program observability off);
--trace 1 runs the traced replica and prints the per-layer metrics.
Every run checks each benchmark's report against the references pinned
in perfbench/ref/ and its Table 3 best-PreFix sign against the paper.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The end-to-end runs are pinned to the harness seed (Harness.seed = 7 is
a constant of the library); --seed is recorded and drives only the
traced replica's inputs.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(BENCH_DIR, "ref")
EXE_TARGET = "perfbench/bench/pbench.exe"
EXE = os.path.join("_build", "default", EXE_TARGET)
WORK_DIR = ".perfbench"
HARNESS_SEED = 7
# Measuring must end within this many seconds of the build; the whole
# command has 180 s once the build is cached.
MEASURE_BUDGET_S = 170
DEADLINE = None
BUILD_TIMEOUT_S = 850
SETUP_SPAWNS = 15

# Why each workload is in the benchmark.
WORKLOADS = {
    "repro": {
        "scale": "long",
        "why": "all 13 models materialized through Harness.run_all then Report.run_all: "
        "exactly `prefix all --jobs 1`, the north-star unit; HDS mining dominates",
    },
    "stream-huge": {
        "scale": "huge",
        "why": "mysql and roms at Huge scale streamed from a spooled columnar container "
        "with decode-once fan-out: decode and replay dominate, mining is small",
    },
    "durable": {
        "scale": "long",
        "why": "mysql, roms, povray and omnetpp streamed through Durable.run_many, "
        "checkpointing every segment, then Durable.check: checkpoint writes beside replay",
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def per_layer_unit(name):
    if name.endswith("_per_s"):
        return "events/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mw"):
        return "Mwords"
    if name.endswith("bytes_per_event"):
        return "B/event"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio") or name.endswith("coverage"):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---- build and provenance -------------------------------------------------


def build():
    if not os.path.exists("dune-project") or not os.path.isdir("lib"):
        raise BenchError("not at the root of a checkout (no dune-project or lib/)")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", EXE_TARGET],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout.decode(errors="replace"))
        raise BenchError("build failed")


def source_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for d, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(workload, args):
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        rev = None
    ocaml = {}
    try:
        cfg = subprocess.run(["ocamlopt", "-config"], capture_output=True, text=True, timeout=30).stdout
    except OSError:
        cfg = ""
    for line in cfg.splitlines():
        k, _, v = line.partition(": ")
        if k in ("version", "word_size"):
            ocaml[k] = v.strip()
    return {
        "revision": rev,
        "source_digest": source_digest(),
        "ocaml": ocaml.get("version"),
        "word_size": ocaml.get("word_size"),
        "nproc": os.cpu_count(),
        "jobs": 1,
        "workload": workload,
        "scale": WORKLOADS[workload]["scale"],
        "seed": args.seed,
        "harness_seed": HARNESS_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": WORKLOADS[workload]["why"],
        "cold_start": "fresh process per run; private TMPDIR and checkpoint dir, empty at start, removed after",
    }


# ---- one fresh process ------------------------------------------------------


def spawn(mode, workload, seed, fast):
    """Run pbench once in a fresh private directory; return its numbers."""
    os.makedirs(WORK_DIR, exist_ok=True)
    rundir = os.path.abspath(os.path.join(WORK_DIR, f"run-{os.getpid()}"))
    if os.path.exists(rundir):
        shutil.rmtree(rundir)
    os.makedirs(os.path.join(rundir, "tmp"))
    # Relative paths only: the child's heap must not depend on where the
    # checkout lives, or its peak RSS would move with the path length.
    cmd = [os.path.relpath(EXE, rundir), mode, "--workload", workload, "--dir", ".", "--seed", str(seed)]
    if fast:
        cmd.append("--fast")
    env = dict(os.environ, TMPDIR="tmp")
    try:
        with open(os.path.join(rundir, "stdout"), "wb") as out, open(os.path.join(rundir, "stderr"), "wb") as err:
            t0 = time.monotonic_ns()
            p = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=rundir)
            while True:
                pid, status, ru = os.wait4(p.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > DEADLINE:
                    p.kill()
                    pid, status, ru = os.wait4(p.pid, 0)
                    break
                time.sleep(0.005)
            p.returncode = os.waitstatus_to_exitcode(status)
        with open(os.path.join(rundir, "stdout")) as f:
            lines = f.read().splitlines()
        with open(os.path.join(rundir, "stderr"), errors="replace") as f:
            stderr = f.read()
        entry = next((int(l.split()[1]) for l in lines if l.startswith("entry_ns ")), None)
        result = next((json.loads(l[len("result "):]) for l in lines if l.startswith("result ")), None)
        outputs = {}
        out_dir = os.path.join(rundir, "out")
        if os.path.isdir(out_dir):
            for name in os.listdir(out_dir):
                with open(os.path.join(out_dir, name), "rb") as f:
                    outputs[name] = f.read()
        spans = os.path.join(rundir, "spans.tsv")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(WORK_DIR, f"spans-{workload}.tsv"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    ok = p.returncode == 0 and entry is not None and (mode == "setup" or result is not None)
    if not ok and stderr:
        sys.stderr.write(stderr[-2000:])
    return {
        "ok": ok,
        "setup_s": (entry - t0) / 1e9 if entry is not None else None,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "result": result,
        "outputs": outputs,
    }


# ---- correctness --------------------------------------------------------------


def references(workload, fast, ref_dir):
    """Pinned outputs the run must reproduce: {file name: bytes}."""
    d = os.path.join(ref_dir, "repro" if fast else workload)
    names = ["libc.txt"] if fast else sorted(os.listdir(d))
    refs = {}
    for n in names:
        with open(os.path.join(d, n), "rb") as f:
            refs[n] = f.read()
    return refs


def sign(x):
    return (x > 0) - (x < 0)


def check(run, refs):
    """Number of pinned items the run got wrong (all of them if it failed)."""
    if not run["ok"]:
        return len(refs)
    signs = {}
    for line in run["outputs"].get("signs.txt", b"").decode().splitlines():
        bench, measured, paper = line.split()
        signs[bench + ".txt"] = sign(float(measured)) == sign(float(paper))
    mismatched = set((run["result"] or {}).get("replica_mismatches", []))
    failed = 0
    for name, want in refs.items():
        good = run["outputs"].get(name) == want
        if name != "report.txt":
            good = good and signs.get(name, False) and name[: -len(".txt")] not in mismatched
        failed += not good
    return failed


# ---- measurement --------------------------------------------------------------


def measure(workload, seed, seconds, trace, fast=False, ref_dir=REF_DIR):
    refs = references(workload, fast, ref_dir)
    attempted = failed = 0
    runs = []
    setups = []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            r = spawn("setup", workload, seed, fast)
            if r["ok"]:
                setups.append(r["setup_s"])
    start = time.monotonic()
    while True:
        t_iter = time.monotonic()
        r = spawn("trace" if trace else "run", workload, seed, fast)
        bad = check(r, refs)
        attempted += len(refs)
        failed += bad
        runs.append(r)
        log("run " + json.dumps({
            "ok": r["ok"], "failed": bad,
            "wall_s": (r["result"] or {}).get("wall_s"),
            "setup_s": r["setup_s"], "cpu_s": r["cpu_s"], "peak_rss_mb": r["peak_rss_mb"],
        }))
        now = time.monotonic()
        if now - start >= seconds or now + (now - t_iter) > DEADLINE:
            break
    good = [r for r in runs if r["ok"]]
    metrics = {}
    if good and not trace:
        setups += [r["setup_s"] for r in good]
        values = {
            "wall_s": statistics.median([r["result"]["wall_s"] for r in good]),
            "cpu_s": statistics.median([r["cpu_s"] for r in good]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in good]),
            "disk_mb": statistics.median([r["result"]["disk_bytes"] / 1e6 for r in good]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    elif good:
        names = good[0]["result"]["metrics"].keys()
        metrics = {
            k: {"value": statistics.median([r["result"]["metrics"][k] for r in good]), "unit": per_layer_unit(k)}
            for k in names
        }
    summary = {"runs": len(runs), "fail_ratio": failed / attempted}
    summary.update({k: v["value"] for k, v in metrics.items() if not trace})
    log("summary " + json.dumps(summary))
    return {"correct": failed == 0 and bool(good), "attempted": attempted, "failed": failed, "metrics": metrics}


# ---- self-test ----------------------------------------------------------------


def self_test():
    """One small benchmark through every workload's code path, both modes;
    then a corrupted reference, which must fail every item."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            res = measure(w, HARNESS_SEED, 0, trace, fast=True)
            if not res["correct"]:
                problems.append(f"{w} trace {trace}: outputs wrong")
            for m in declared[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w} trace {trace}: {m['name']} missing or unit differs")
            problems += [f"bad metric name {n}" for n in res["metrics"] if not NAME_RE.match(n)]
    corrupt = os.path.join(WORK_DIR, "corrupt-ref")
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(REF_DIR, corrupt)
    for d, _, files in os.walk(corrupt):
        for n in files:
            with open(os.path.join(d, n), "ab") as f:
                f.write(b"corrupted\n")
    for w in WORKLOADS:
        res = measure(w, HARNESS_SEED, 0, 0, fast=True, ref_dir=corrupt)
        if res["failed"] != res["attempted"]:
            problems.append(f"{w}: corrupted reference gave fail_ratio {res['failed'] / res['attempted']}")
    shutil.rmtree(corrupt, ignore_errors=True)
    for n in [m["name"] for ms in declared.values() for m in ms]:
        if not NAME_RE.match(n):
            problems.append(f"bad declared name {n}")
    for p in problems:
        log("self-test: " + p)
    log("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], help="'all' runs each workload in turn")
    ap.add_argument("--seed", type=int, default=HARNESS_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    global DEADLINE
    try:
        build()
        if args.self_test:
            DEADLINE = time.monotonic() + MEASURE_BUDGET_S
            return self_test()
        results = []
        for w in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
            DEADLINE = time.monotonic() + MEASURE_BUDGET_S
            log("provenance " + json.dumps(provenance(w, args)))
            results.append(measure(w, args.seed, args.seconds, args.trace))
            print(json.dumps(results[-1]), flush=True)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    return 0 if all(r["metrics"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
