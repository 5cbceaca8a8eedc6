"""cpflow benchmark: one workload per process, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload neutral|picard|cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  ``--workload all`` runs every workload both ways in child
processes and writes the combined results to ``perfbench/out/``.  See
``perfbench/README.md`` for the metric definitions.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("neutral", "picard", "cli")
SETUP_REPS = 7
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
OP_PERCENTILE = 5  # percentile of each kind's latencies reported as op_p5_s
CHILD_TIMEOUT_S = 600

BLAS_THREADS = "1"

clock = time.perf_counter


def pin_process():
    """One BLAS thread and one CPU at a time; returns the CPUs the process may use.

    Must run before numpy is imported.  One BLAS thread never exceeds nproc
    and keeps runs steady on a shared box.  The process is pinned because
    letting the scheduler choose was the largest source of run-to-run spread;
    ``move_to_fastest_cpu`` chooses the CPU before each timed step.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus


def move_to_fastest_cpu(cpus):
    """Pin the process to whichever of ``cpus`` runs a fixed probe fastest now.

    The shared host slows each vCPU by about 1.7x in episodes lasting from a
    fraction of a second to tens of seconds, and the vCPUs switch
    independently, so choosing before each timed step runs more of them in a
    fast state.  The probe (best of three 64x64 eigenvalue solves per CPU,
    about 1 ms each) runs outside the timed step.
    """
    if len(cpus) < 2:
        return
    import numpy as np

    probe = np.random.default_rng(0).standard_normal((64, 64))

    def probe_time(cpu):
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            t = clock()
            np.linalg.eigvals(probe)
            best = min(best, clock() - t)
        return best

    os.sched_setaffinity(0, {min(cpus, key=probe_time)})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="length of the timed phase; whole passes run until it has elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
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


def environment(seed, cpus):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus": cpus,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------


def run_pass(wl, p, tracer=None, cpus=()):
    """Run pass ``p``; returns (wall, ops, span range) with wall = sum of op times.

    Each operation runs on the CPU of ``cpus`` that is fastest just before it.
    """
    from workloads import GateError

    if tracer is not None:
        tracer.paused = True
    ops = wl.ops(p)
    first_span = len(tracer.spans) if tracer is not None else 0
    records = []
    for i, (kind, run, check) in enumerate(ops):
        move_to_fastest_cpu(cpus)
        if tracer is not None:
            tracer.op, tracer.paused = i, False
        error, counters = None, {}
        t0 = clock()
        try:
            out = run()
        except Exception as exc:  # a raising operation is a failed one; keep going
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
        if tracer is not None:
            tracer.paused = True
        if error is None:
            try:
                counters = check(out) or {}
            except GateError as exc:
                error = f"gate: {exc}"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"kind": kind, "latency": latency, "error": error, "counters": counters})
    wall = sum(r["latency"] for r in records)
    return wall, records, (first_span, len(tracer.spans) if tracer is not None else 0)


def timed_phase(wl, seconds, tracer=None, cpus=()):
    """Whole passes until ``seconds`` have elapsed (at least one).

    Traced runs play every pass twice, untraced then traced, so the
    difference of the two gives the tracing overhead.
    """
    untraced, traced = [], []
    deadline = clock() + seconds
    p = 0
    while True:
        untraced.append(run_pass(wl, p, cpus=cpus))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(wl, p, tracer, cpus))
            finally:
                tracer.uninstall()
        p += 1
        if clock() >= deadline:
            return untraced, traced


def percentile_tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum at percentile 100.
    """
    n = len(latencies)
    ordered = sorted(latencies, reverse=True)
    if n <= TAIL_BEYOND:
        return ordered[0], 100.0
    return ordered[TAIL_BEYOND], 100.0 * (1.0 - TAIL_BEYOND / n)


def percentile(values, pct):
    """Linear-interpolation percentile (numpy's default); one value is its own."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_kind(ops, kinds, pct):
    """Median over operation kinds of each kind's ``pct`` percentile latency."""
    return statistics.median(percentile([r["latency"] for r in ops if r["kind"] == k], pct)
                             for k in kinds if any(r["kind"] == k for r in ops))


def end_to_end(wl, setup_s, passes):
    ops = [r for _w, recs, _r in passes for r in recs]
    tail, pct = percentile_tail([r["latency"] for r in ops])
    metrics = {
        "wall_s": (statistics.fmean(w for w, _recs, _r in passes), "s"),
        "setup_s": (setup_s, "s"),
        "op_p5_s": (per_kind(ops, wl.kinds, OP_PERCENTILE), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"passes": len(passes), "ops": len(ops), "tail_percentile": round(pct, 2),
             "tail_samples_beyond": TAIL_BEYOND if pct < 100.0 else 0,
             "op_p50_s": f"{per_kind(ops, wl.kinds, 50):.6g}"}
    return metrics, notes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


IMPORT_CODE = ("import time; t = time.perf_counter(); import cpflow, cpflow.cli; "
               "print(time.perf_counter() - t)")


def import_seconds(cpus):
    """Median time to import cpflow and its CLI, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPS):
        move_to_fastest_cpu(cpus)
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(args, cpus):
    import cpflow
    import cpflow.cli  # noqa: F401

    if Path(cpflow.__file__).resolve().parent != (SRC / "cpflow").resolve():
        print(f"imported cpflow from {cpflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import layers
    import workloads
    from tracer import Tracer

    env = environment(args.seed, cpus)
    print("# env " + json.dumps(env, sort_keys=True))
    wl = workloads.make(args.workload, args.seed, str(OUT))
    try:
        reps = []
        for _ in range(SETUP_REPS):
            move_to_fastest_cpu(cpus)
            t = clock()
            wl.setup()
            reps.append(clock() - t)
        tracer = Tracer() if args.trace else None
        setup_s = None if tracer else import_seconds(cpus) + statistics.median(reps)
        untraced, traced = timed_phase(wl, args.seconds, tracer, cpus)
    finally:
        wl.close()

    passes = untraced + traced
    ops = [r for _w, recs, _r in passes for r in recs]
    failures = [r for r in ops if r["error"]]
    for r in failures[:5]:
        print(f"# failed {r['kind']}: {r['error']}", file=sys.stderr)
    problems = []
    if tracer is None:
        metrics, notes = end_to_end(wl, setup_s, untraced)
    else:
        metrics, problems = layers.per_layer(tracer, untraced, traced)
        notes = {"passes": len(traced), "spans": len(tracer.spans)}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        notes["spans_file"] = str(spans_path.relative_to(ROOT))
    for msg in problems:
        print(f"# cross-check failed: {msg}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    print(f"# fail_frac = {len(failures)}/{len(ops)} = {len(failures) / len(ops):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own child process."""
    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = combined["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            for line in proc.stdout.splitlines():
                if line.startswith("# env "):
                    combined["env"] = json.loads(line[len("# env "):])
            entry["trace" if trace else "end_to_end"] = json.loads(proc.stdout.splitlines()[-1])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(combined, indent=2, sort_keys=True) + "\n")
    ok = all(e[k]["correct"] for e in combined["workloads"].values() for k in e)
    print(f"# results -> {path.relative_to(ROOT)}")
    print(json.dumps({"correct": ok,
                      "attempted": sum(e["end_to_end"]["attempted"] for e in combined["workloads"].values()),
                      "failed": sum(e["end_to_end"]["failed"] for e in combined["workloads"].values()),
                      "metrics": {}}))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "cpflow" / "__init__.py").is_file():
        print(f"cpflow sources not found under {SRC}", file=sys.stderr)
        return 2
    cpus = pin_process()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, cpus)


if __name__ == "__main__":
    sys.exit(main())
