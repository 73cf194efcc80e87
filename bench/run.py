"""Benchmark of probmorph: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
One process, one closed-loop client: each job starts when the previous
one has returned.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` a
separate run installs the wrappers of ``tracing.py`` and reports per-layer
metrics per job instead.  See README.md for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy is first imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COLD_STARTS = 4        # fresh interpreters before and again after the timed
                       # loop, so that a burst of load on the host meets only
                       # some of them; setup_s is the median of all
WARMUP_S = 1.0         # untimed jobs before the timed loop (whole rounds)
MIN_JOBS = 110         # so that at least ten jobs lie beyond the p90
CHILD_TIMEOUT_S = 120


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_program():
    """Import probmorph from this checkout's src, and nowhere else."""
    if not (SRC / "probmorph" / "__init__.py").is_file():
        fail(f"no program source under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import probmorph
    if Path(probmorph.__file__).resolve().parent != (SRC / "probmorph").resolve():
        fail(f"imported probmorph from {probmorph.__file__}, not from {SRC}")


def cold_start_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Launch a fresh interpreter that builds the inputs and runs the first
    job; the time until it reports the job done."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "coldstart.py"), workload, str(seed), str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"cold start of {workload} failed ({proc.returncode}): {err.strip()}")
    shutil.rmtree(workdir)
    return elapsed


def run_rounds(w, start: int, seconds: float, min_jobs: int) -> dict:
    """Jobs back to back, in whole rounds, until ``seconds`` have passed and
    at least ``min_jobs`` have run.  Records each job's wall time and the
    CPU time the process spent on it, and the loop's totals."""
    walls, cpus, results = [], [], []
    i = start
    cpu_start, t_start = time.process_time(), time.perf_counter()
    deadline = t_start + seconds
    while True:
        for _ in range(w.round_size):
            c0, t0 = time.process_time(), time.perf_counter()
            results.append(w.job(i))
            t1, c1 = time.perf_counter(), time.process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            i += 1
        if t1 >= deadline and len(walls) >= min_jobs:
            break
    return {"walls": walls, "cpus": cpus, "results": results,
            "wall": t1 - t_start, "cpu": time.process_time() - cpu_start}


def check_outputs(w, first: int, results: list):
    import checks
    loaded = [checks.load_outputs(w, i, r) for i, r in enumerate(results, start=first)]
    verdicts = checks.verify(w, loaded, first)
    problems = verdicts.wrong[:5] + checks.self_test(w, loaded[0], first)
    for p in problems:
        sys.stderr.write(f"bench: {w.name}: {p}\n")
    return verdicts, not problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        fail(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups = []

    def cold_starts():
        for _ in range(0 if trace else COLD_STARTS):
            setups.append(cold_start_seconds(name, seed, workdir / f"cold-{len(setups)}"))

    try:
        cold_starts()
        (workdir / "run").mkdir(parents=True)
        w = WORKLOADS[name](seed, workdir / "run")
        first = len(run_rounds(w, 0, WARMUP_S, 0)["walls"])
        gc.collect()
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                loop = run_rounds(w, first, seconds, w.round_size)
            finally:
                tracer.uninstall()
        else:
            loop = run_rounds(w, first, seconds, MIN_JOBS)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            cold_starts()
        verdicts, correct = check_outputs(w, first, loop["results"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    jobs, cpus = len(loop["walls"]), loop["cpus"]
    if trace:
        metrics = tracer.per_job(jobs, sum(loop["walls"]), statistics.median(cpus))
    else:
        metrics = {
            "jobs_per_s": {"value": jobs / loop["wall"], "unit": "1/s"},
            "job_cpu_p50_ms": {"value": statistics.median(cpus) * 1e3, "unit": "ms"},
            "job_cpu_p90_ms": {"value": statistics.quantiles(cpus, n=10)[8] * 1e3, "unit": "ms"},
            "cpu_per_job_ms": {"value": loop["cpu"] / jobs * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    sys.stderr.write(f"bench: {name}: {jobs} timed jobs, "
                     f"{verdicts.failed}/{verdicts.attempted} operations failed"
                     + (f" ({', '.join(sorted(verdicts.failed_ops))})" if verdicts.failed else "")
                     + "\n")
    return {"correct": correct, "attempted": verdicts.attempted,
            "failed": verdicts.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="exact-cli, gp-regression, grid-bridge, finite-laws or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        import_program()
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
