"""End-to-end and per-layer benchmark of the gghs command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # table, one row per workload
    python3 perfbench/run.py --workload all --quick                # every job once, checked

Every job is one fresh process of the real entry point, `python -m gghs.cli`
with `src` on the path (the library-only job runs perfbench/libjob.py the same
way). Jobs run in a closed loop: one client, one process at a time. A run
sets up SETUPS times (generate the seeded inputs, run one warm-up job) and
reports the median as setup_s. It then repeats passes over the workload's
job list until S seconds have gone and at least the workload's MIN_PASSES
have run, always finishing the pass it started. Every output is checked
(check.py); a wrong answer, an unexpected exit code or a job over its time
budget counts as failed.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 untraced and traced passes alternate, at least one of each, until
S seconds have gone; traced jobs run in-process through perfbench/tracer.py,
and the last line holds the per-layer metrics (per pass, median over the
traced passes) and trace.overhead_s, the traced pass wall time minus the
untraced one.

Earlier stdout lines give the machine record, the run's job counts, the
percentile behind job_tail_s and fail_ratio; failures are listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
RUN_DEADLINE_S = 170.0  # no job starts, and none runs, past this point of a run
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


# One thread per job process. With two OpenBLAS threads on this 2-vCPU class
# of host, a 256x256 eigvalsh took 0.12-1.96 s instead of 0.06-0.10 s
# whenever the other vCPU was busy: the threads wait on each other.
BLAS_THREADS = 1


def job_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def machine_record() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "loadavg_before": list(os.getloadavg()),
    }


class Run:
    """One benchmark run of one workload: inputs, checker, job results."""

    def __init__(self, workload: str, seed: int, references: dict):
        self.workload, self.seed = workload, seed
        self.refs = references
        self.env = job_env()
        self.t_start = time.monotonic()
        self.dirs = []
        self.failures = []
        self.attempted = 0
        self.checker = None
        self.workdir = None
        self.jobs = []

    def run_job(self, job: dict, traced: bool) -> dict:
        """Run one job as a fresh process; wall and CPU time, exit code, stdout."""
        self.attempted += 1
        res = {"id": job["id"], "wall": 0.0, "cpu": 0.0, "rc": None, "out": b"", "err": b""}
        timeout = min(job["budget_s"], RUN_DEADLINE_S - (time.monotonic() - self.t_start))
        if timeout <= 0:
            res["status"] = "deadline"
            return res
        kind, args = ("lib", job["lib"]) if "lib" in job else ("cli", job["argv"])
        spans = os.path.join(self.workdir, "spans.json") if traced else None
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawn_ns = time.monotonic_ns()
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), str(spawn_ns), spans, kind, *args]
        elif kind == "lib":
            cmd = [sys.executable, os.path.join(HERE, "libjob.py"), *args]
        else:
            cmd = [sys.executable, "-m", "gghs.cli", *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            res["out"], res["err"] = proc.communicate(timeout=timeout)
            res["status"] = "ok"
        except subprocess.TimeoutExpired:
            proc.kill()
            res["out"], res["err"] = proc.communicate()
            res["status"] = "timeout"
        res["wall"] = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        res["cpu"] = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        res["rc"] = proc.returncode
        if traced and res["status"] == "ok" and os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                res["layers"] = tracer.job_metrics(json.load(fh))
            os.remove(spans)
        return res

    def judge(self, job: dict, res: dict) -> bool:
        if res["status"] == "ok":
            reason = self.checker.check(job, res["rc"], res["out"])
            if reason is None:
                return True
            res["status"] = "wrong"
        else:
            reason = res["status"]
        err = res["err"].decode("utf-8", "replace").strip().splitlines()[-3:]
        self.failures.append({"id": job["id"], "status": res["status"], "reason": reason, "stderr": err})
        return False

    def setup(self, i: int) -> float:
        t0 = time.perf_counter()
        workdir = os.path.join(WORK_DIR, f"{self.workload}-s{self.seed}-p{os.getpid()}-{i}")
        self.dirs.append(workdir)
        self.workdir = workdir
        self.jobs = workloads.generate(self.workload, self.seed, workdir)
        self.checker = check.Checker(workdir, self.refs)
        warm = {"id": "warmup", "argv": workloads.WARMUP_ARGV, "check": {"type": "ref"},
                "budget_s": workloads.LIGHT_BUDGET_S}
        self.judge(warm, self.run_job(warm, traced=False))
        return time.perf_counter() - t0

    def run_pass(self, traced: bool) -> dict:
        t0 = time.perf_counter()
        results = [self.run_job(job, traced) for job in self.jobs]
        wall = time.perf_counter() - t0
        for job, res in zip(self.jobs, results):
            self.judge(job, res)
        layers = {}
        for res in results:
            for k, v in res.get("layers", {}).items():
                layers[k] = layers.get(k, 0) + v
        return {"traced": traced, "wall": wall, "cpu": sum(r["cpu"] for r in results),
                "job_walls": [r["wall"] for r in results], "layers": layers}

    def cleanup(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def tail(samples, level: float) -> float:
    """Nearest-rank value at `level` (0..1) of the pooled job wall times."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(level * len(xs) - 1e-9)) - 1]


def measure(run: Run, seconds: float, trace: bool) -> dict:
    setups = [run.setup(i) for i in range(SETUPS)]
    min_passes = workloads.MIN_PASSES[run.workload]
    # The highest percentile with ten samples beyond it at the smallest run;
    # fixed per workload so that a faster program, which fits more passes
    # into the same seconds, is still measured at the same percentile.
    level = 1.0 - 10.0 / (min_passes * len(run.jobs))
    passes = []
    t0 = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run.run_pass(traced))
        plain = [p for p in passes if not p["traced"]]
        if trace:  # per-layer figures only: one untraced and one traced pass suffice
            enough = 0 < len(plain) < len(passes)
        else:
            enough = len(plain) >= min_passes
        done = enough and time.monotonic() - t0 >= seconds
        if done or time.monotonic() - run.t_start >= RUN_DEADLINE_S:
            break
    plain = [p for p in passes if not p["traced"]]
    walls = [w for p in plain for w in p["job_walls"]]
    tail_s = tail(walls, level)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    summary = {
        "passes": len(plain),
        "samples": len(walls),
        "tail_percentile": 100.0 * level,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "job_p50_s": statistics.median(walls),
            "job_tail_s": tail_s,
            "peak_rss_mb": rss / 1024.0,
        },
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        layers = {}
        for key in set().union(*(p["layers"] for p in traced)):
            layers[key] = statistics.median(p["layers"].get(key, 0) for p in traced)
        layers["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - summary["end_to_end"]["wall_s"]
        )
        summary["per_layer"] = layers
    return summary


def quick(names, seed: int, trace: bool, refs: dict) -> int:
    """Run every job once, untimed, and check its output. Returns the exit code."""
    bad = 0
    for name in names:
        run = Run(name, seed, refs)
        try:
            run.setup(0)
            for job in run.jobs:
                res = run.run_job(job, trace)
                ok = run.judge(job, res)
                reason = "" if ok else run.failures[-1]["reason"]
                print(f"{name:10s} {job['id']:32s} {'PASS' if ok else 'FAIL ' + str(reason)}", flush=True)
            bad += len(run.failures)
        finally:
            run.cleanup()
    print(f"quick check: {bad} failed")
    return 1 if bad else 0


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="run every job once, untimed, and check it")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gghs", "cli.py")):
        print(f"perfbench: no gghs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    refs = check.load_references()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.quick:
        return quick(names, args.seed, bool(args.trace), refs)

    machine = machine_record()
    section = "per_layer" if args.trace else "end_to_end"
    rows, failed, attempted = {}, 0, 0
    for name in names:
        run = Run(name, args.seed, refs)
        try:
            summary = measure(run, args.seconds, bool(args.trace))
        finally:
            run.cleanup()
        for f in run.failures:
            print(f"FAILED {name} {f['id']}: {f['status']}: {f['reason']} {f['stderr']}", file=sys.stderr)
        failed += len(run.failures)
        attempted += run.attempted
        values = summary[section]
        rows[name] = {m["name"]: values.get(m["name"], 0) for m in spec[section]}
        print(
            f"# {name} seed={args.seed} trace={args.trace}: {summary['passes']} passes, "
            f"{summary['samples']} job samples, job_tail_s at p{summary['tail_percentile']:.1f}, "
            f"{len(run.failures)}/{run.attempted} failed "
            f"(fail_ratio {len(run.failures) / run.attempted:.6g})"
        )
    machine["loadavg_after"] = list(os.getloadavg())
    print("# machine " + json.dumps(machine))

    units = {m["name"]: m["unit"] for m in spec[section]}
    header = ["workload"] + [f"{m}[{u}]" for m, u in units.items()]
    print("\t".join(header))
    for name, values in rows.items():
        print("\t".join([name] + [_fmt(values[m]) for m in units]))
    if len(names) == 1:
        metrics = {m: {"value": v, "unit": units[m]} for m, v in rows[names[0]].items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
