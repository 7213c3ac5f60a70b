"""ssblow benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {cli-session,sigma-star,figures}
                             --seed N --seconds S --trace {0,1}

Runs whole passes of the workload until about S seconds have gone, checks
every operation's output, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones listed in BENCHMARK.json, with --trace 1
the per-layer ones, taken from traced passes that alternate with untraced
ones.  The line before it is the run record: versions, machine, commit,
source size, the raw wall_s and cpu_s, and every pass's per-operation
times.  Run it from the repository root; see perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
REFERENCE_ITERATIONS = 300_000
PROBE_TIMEOUT_S = 60


def cpu_now() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop, about 20 ms on a 2-core Xeon VM.

    The speed of a shared machine drifts by +-20 % over tens of seconds.
    Timing this loop between operations measures that drift, and dividing
    an operation's time by it gives a cost in machine-speed units
    (wall_ref) that holds still while the machine does not."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * 0.5
    return perf_counter() - t0


def run_pass(wl, ctx, traced: bool) -> dict:
    """One pass: each operation timed between two reference loops, then
    checked with recording off."""
    tr = spans.Tracer().install(ctx.ssblow) if traced else None
    ctx.tracer = tr
    walls, cpus, refs = [], [], []
    failed = 0
    ops = wl.ops()
    try:
        for k, op in enumerate(ops):
            ref_before = reference_loop()
            if tr is not None:
                tr.op = k
                tr.recording = True
                span = tr.begin("op", name=op.name)
            t0, c0 = perf_counter(), cpu_now()
            try:
                result, problems = op.run(), None
            except Exception:
                result, problems = None, [traceback.format_exc()]
            walls.append(perf_counter() - t0)
            cpus.append(cpu_now() - c0)
            if tr is not None:
                tr.end(span)
                tr.recording = False
            refs.append((ref_before, reference_loop()))
            if problems is None:
                try:
                    problems = op.check(result)
                except Exception:
                    problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print("FAILED %s: %s" % (op.name, "; ".join(problems)), file=sys.stderr)
    finally:
        if tr is not None:
            tr.uninstall()
        ctx.tracer = None
    ref = sum(2.0 * w / (a + b) for w, (a, b) in zip(walls, refs))
    out = {"wall": sum(walls), "cpu": sum(cpus), "ref": ref, "op_wall": walls, "op_refs": refs,
           "ops": len(ops), "failed": failed}
    if tr is not None:
        out["layers"] = spans.layer_metrics(tr)
        out["layers"]["profiles.xval_max_rel"] = ctx.xval_max_rel
    return out


def setup_probe(args) -> float:
    """Wall time of a fresh interpreter that imports ssblow and prepares the workload."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    t0 = perf_counter()
    subprocess.run(argv, check=True, env=workloads.child_env(ROOT), cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
    return perf_counter() - t0


def import_times() -> dict:
    """Cumulative import times of ssblow and scipy.stats from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ssblow"], check=True,
                          env=workloads.child_env(ROOT), cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {"import.ssblow_s": cumulative["ssblow"], "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0)}


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> int:
    """Keep this process and the children it starts on the CPU it runs on
    now, so that the reference loop and every operation, CLI children
    included, see the same core's speed."""
    allowed = os.sched_getaffinity(0)
    try:  # field 39 of /proc/self/stat is the CPU last run on
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    cpu = cpu if cpu in allowed else min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_record(args, passes, inputs, **extra) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model,
        "commit": commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "ssblow").glob("*.py")),
        **extra,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }


def measure(args, spec, ctx) -> tuple[dict, int, int, bool]:
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    setup_s = statistics.median(setup_probe(args) for _ in range(SETUP_REPEATS))
    wl = workloads.CLASSES[args.workload](args.seed, ctx)
    passes = []
    t_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = perf_counter()
        p = run_pass(wl, ctx, traced)
        p["traced"] = traced
        passes.append(p)
        elapsed = perf_counter() - t_start
        # stop when a further pass would end nearer past the budget than short of it
        if elapsed + 0.5 * (perf_counter() - t0) >= args.seconds and (not args.trace or len(passes) >= 2):
            break
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    # raw times follow the machine's drift; they are recorded, not bounded
    raw = {key: {"value": statistics.median(p[field] for p in plain), "unit": "s"}
           for key, field in (("wall_s", "wall"), ("cpu_s", "cpu"))}
    repeatable = True
    if args.trace:
        traced_passes = [p["layers"] for p in passes if p["traced"]]
        repeatable = all(t[k] == traced_passes[0][k] for t in traced_passes for k in spans.COUNTS)
        if not repeatable:
            print("traced passes gave different counts", file=sys.stderr)
        values = {k: statistics.median(t[k] for t in traced_passes) for k in traced_passes[0]}
        values.update(import_times())
        values["trace.overhead_ratio"] = statistics.median(
            p["ref"] for p in passes if p["traced"]) / statistics.median(p["ref"] for p in plain)
        values["failed_ops_ratio"] = failed / attempted
        values["ops"] = attempted
        wanted = spec["per_layer"]
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
        values = {
            "wall_ref": statistics.median(p["ref"] for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"run_record": run_record(args, passes, wl.inputs, nproc=nproc, pinned_cpu=cpu, **raw)}))
    return metrics, attempted, failed, repeatable


@contextlib.contextmanager
def workspace():
    """The imported package and a scratch directory inside the checkout,
    removed again on exit."""
    ssblow = workloads.load_ssblow(ROOT)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        yield SimpleNamespace(ssblow=ssblow, io=ssblow.io, workdir=workdir, env=workloads.child_env(ROOT),
                              ledger=checks.FileLedger(), tracer=None, xval_max_rel=0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with workspace() as ctx:
        if args.setup_only:
            workloads.CLASSES[args.workload](args.seed, ctx).ops()
            return 0
        metrics, attempted, failed, repeatable = measure(args, spec, ctx)
    print(json.dumps({"correct": failed == 0 and repeatable, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
