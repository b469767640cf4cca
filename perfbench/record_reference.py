"""Record reference.json: the answer of every reference-checked job.

    python3 perfbench/record_reference.py

Runs each job of `workloads.reference_jobs()` once through the CLI of this
checkout and stores its parsed stdout under the job's argument string. The
committed file was recorded at the commit that introduced the benchmark, so
later commits are checked against that commit's answers, documented
mismatches included. Re-record only when a change shows an old answer was
wrong, and say so where the change is described.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    bench = run.Run("cli-small", 0, {})
    refs = {}
    try:
        bench.setup(0)  # writes warmup.json; the warm-up "fails" against the empty refs
        jobs = [{"id": "warmup", **workloads._ref(workloads.WARMUP_ARGV)}] + workloads.reference_jobs()
        for i, job in enumerate(jobs):
            res = bench.run_job({"id": f"ref{i}", **job}, traced=False)
            if res["status"] != "ok" or res["rc"] != 0:
                print(f"job failed: {job['argv']}: {res['status']} rc={res['rc']}", file=sys.stderr)
                return 1
            refs[check.reference_key(job["argv"])] = json.loads(res["out"])
    finally:
        bench.cleanup()
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=False)
        fh.write("\n")
    print(f"recorded {len(refs)} answers in {check.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
