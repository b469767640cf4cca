"""Seeded input generator and job lists for the benchmark workloads.

`generate(workload, seed, outdir)` writes every input file the jobs read into
`outdir` (matrix JSON, codeword text) plus `manifest.json`, which records the
seed and the job list, and returns the job list. The same seed always gives
the same files and jobs. Jobs run with `outdir` as their working directory,
so file arguments are bare names.

A job is a dict:
  id        short label, unique within the list
  argv      arguments after `gghs` (absent for library jobs)
  lib       arguments of perfbench/libjob.py (library-only jobs)
  check     how check.py decides the answer is right
  budget_s  wall-time budget; a job over it is a failed `timeout`

Run `python3 perfbench/workloads.py WORKLOAD SEED OUTDIR` to write a set of
inputs by hand.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np

import oracle

WORKLOADS = ("cli-small", "dense")
# Fewest untraced passes in a run. job_tail_s is taken at the highest
# percentile that leaves ten samples beyond it at this many passes.
MIN_PASSES = {"cli-small": 8, "dense": 3}

LIGHT_BUDGET_S = 20.0
HEAVY_BUDGET_S = 60.0  # decode-error at DENSE_MATRIX_CAP

# Matrices and graphs of the README command list, swept at d <= 6. Graphs
# have n >= 3 so that every invariant subcommand applies to every pair.
CLI_MATRICES = (
    "fourier:2", "fourier:3", "fourier:4", "fourier:5", "fourier:6",
    "h_alpha:pi/5", "h_alpha:pi/7", "tilde_a", "tilde_b", "tilde_c", "tilde_d",
    "qutrit_h2", "h_d6",
)
CLI_GRAPHS = ("triangle", "line:3", "star:3", "cycle:4", "star:4", "line:4")
CLI_PER_KIND = 2  # jobs of each kind in one cli-small pass

WARMUP_ARGV = ["validate", "warmup.json"]


def _dim(spec: str) -> int:
    if spec.startswith("fourier:"):
        return int(spec.split(":")[1])
    return {"qutrit_h2": 3, "h_d6": 6}.get(spec, 4)


def _size(spec: str) -> int:
    return oracle.graph(spec)[0]


def _ref(argv):
    return {"argv": list(argv), "check": {"type": "ref"}, "budget_s": LIGHT_BUDGET_S}


def cli_small_universe():
    """Every cli-small job, grouped by kind. Seed-dependent arguments (state
    digits, codeword files) are filled in by `generate`; the rest are all
    reference-checked, so `record_reference.py` runs each of them once."""
    pairs = [(g, m) for g in CLI_GRAPHS for m in CLI_MATRICES if _dim(m) ** _size(g) <= 1296]
    small = [(g, m) for g, m in pairs if _dim(m) ** _size(g) <= 256]
    same_d = [
        (a, b) for a, b in itertools.product(CLI_MATRICES, repeat=2) if _dim(a) == _dim(b)
    ]
    return {
        "validate": [_ref(["validate", m]) for m in CLI_MATRICES],
        "symmetries": [_ref(["symmetries", m]) for m in CLI_MATRICES],
        # General search at d = 6 scans 518 400 pairs (about 9 s): not a tiny job.
        "equiv": [_ref(["equiv", a, b]) for a, b in same_d if _dim(a) <= 5],
        "equiv-p": [_ref(["equiv", a, b, "--p-equiv"]) for a, b in same_d],
        "i6": [_ref(["invariant", "--graph", g, "--hadamard", m, "--i6"]) for g, m in pairs]
        + [_ref(["invariant", "--state", f"ghz:{n}:{d}", "--i6"]) for n in (3, 4) for d in range(2, 7)],
        "schmidt": [
            _ref(["invariant", "--graph", g, "--hadamard", m, "--schmidt", part])
            for g, m in pairs
            for part in ("1", "0,1")
        ],
        "rdm": [
            _ref(["invariant", "--graph", g, "--hadamard", m, "--rdm", site])
            for g, m in pairs
            for site in ("1",)
        ],
        "stabilizers": [_ref(["stabilizers", "--graph", g, "--hadamard", m]) for g, m in pairs],
        "decode": [
            _ref(["decode-error", "--graph", g, "--hadamard", m, "--site", "0", "--op", op])
            for g, m in small
            for op in ("X", "Z")
        ],
        "state": pairs,
        "peps": pairs,
        "code": [m for m in CLI_MATRICES if _dim(m) <= 3],
    }


def reference_jobs():
    """Every reference-checked job of every workload, for record_reference.py."""
    jobs = []
    for kind, entries in cli_small_universe().items():
        if kind not in ("state", "peps", "code"):
            jobs.extend(entries)
    jobs.append(_ref(DENSE_I6))
    jobs.append(_ref(DENSE_STABILIZERS))
    return jobs


def _matrix_obj(entries: np.ndarray) -> dict:
    pairs = np.stack([entries.real, entries.imag], axis=-1)
    return {"d": int(entries.shape[0]), "entries": pairs.tolist()}


def _write(outdir, name, text):
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _words(rng, n, d, k):
    """k distinct random words of length n over 0..d-1, as codeword text."""
    picks = rng.choice(d**n, size=k, replace=False)
    words = [np.base_repr(int(x), base=d).zfill(n) for x in sorted(picks)]
    return "".join(w + "\n" for w in words)




def _gen_cli_small(rng, outdir):
    uni = cli_small_universe()
    jobs = []
    for kind, entries in uni.items():
        for i in rng.choice(len(entries), size=CLI_PER_KIND, replace=False):
            entry = entries[int(i)]
            if kind == "state":
                g, m = entry
                digits = [int(x) for x in rng.integers(0, _dim(m), size=_size(g))]
                job = {
                    "argv": ["state", "--graph", g, "--hadamard", m,
                             "--digits", ",".join(map(str, digits))],
                    "check": {"type": "state", "graph": g, "matrix": m, "digits": digits},
                    "budget_s": LIGHT_BUDGET_S,
                }
            elif kind == "peps":
                g, m = entry
                job = {"argv": ["peps-check", "--graph", g, "--hadamard", m],
                       "check": {"type": "peps"}, "budget_s": LIGHT_BUDGET_S}
            elif kind == "code":
                d, k = _dim(entry), int(rng.integers(1, _dim(entry) + 1))
                name = f"words{len(jobs)}.txt"
                _write(outdir, name, _words(rng, 3, d, k))
                job = {"argv": ["code", "--graph", "triangle", "--hadamard", entry,
                                "--classical", name, "--distance", "3", "--enumerators"],
                       "check": {"type": "code", "n": 3, "d": d, "K": k},
                       "budget_s": LIGHT_BUDGET_S}
            else:
                job = dict(entry)
            job["id"] = f"{kind}-{len(jobs)}"
            jobs.append(job)
    return jobs


DENSE_GRAPH = "cycle:10"  # 4**10 = 2**20 amplitudes
DENSE_MATRIX = "fourier:4"
DENSE_I6 = ["invariant", "--graph", DENSE_GRAPH, "--hadamard", DENSE_MATRIX, "--i6"]
DENSE_STABILIZERS = ["stabilizers", "--graph", "cycle:8", "--hadamard", DENSE_MATRIX]


def _gen_dense(rng, outdir):
    digits = [int(x) for x in rng.integers(0, 4, size=8)]
    cut = sorted(int(x) for x in rng.choice(10, size=4, replace=False))
    jobs = [
        {"id": "state", "argv": ["state", "--graph", "cycle:8", "--hadamard", DENSE_MATRIX,
                                 "--digits", ",".join(map(str, digits))],
         "check": {"type": "state", "graph": "cycle:8", "matrix": DENSE_MATRIX, "digits": digits}},
        {"id": "i6", **_ref(DENSE_I6)},
        {"id": "schmidt", "argv": ["invariant", "--graph", DENSE_GRAPH, "--hadamard", DENSE_MATRIX,
                                   "--schmidt", ",".join(map(str, cut))],
         "check": {"type": "schmidt", "graph": DENSE_GRAPH, "matrix": DENSE_MATRIX, "part": cut}},
        {"id": "peps", "argv": ["peps-check", "--graph", DENSE_GRAPH, "--hadamard", DENSE_MATRIX],
         "check": {"type": "peps"}},
        {"id": "stabilizers", **_ref(DENSE_STABILIZERS)},
    ]
    # A diagonal error commutes with every edge gate, so its decoded form is
    # known in closed form; line:6 at d = 4 sits at DENSE_MATRIX_CAP (4096).
    for graph in ("cycle:5", "line:6"):
        site = int(rng.integers(0, _size(graph)))
        power = int(rng.integers(1, 4))
        jobs.append({
            "id": f"decode-{graph}",
            "argv": ["decode-error", "--graph", graph, "--hadamard", DENSE_MATRIX,
                     "--site", str(site), "--op", f"Z:{power}"],
            "check": {"type": "decode_diag", "matrix": DENSE_MATRIX, "power": power},
        })
    jobs.append({"id": "hamiltonian", "lib": ["hamiltonian_ground_check", "cycle:5", DENSE_MATRIX],
                 "check": {"type": "hamiltonian"}})
    for job in jobs:
        job.setdefault("budget_s", HEAVY_BUDGET_S if job["id"] == "decode-line:6" else LIGHT_BUDGET_S)
    return jobs


_GENERATORS = {"cli-small": _gen_cli_small, "dense": _gen_dense}


def generate(workload: str, seed: int, outdir: str):
    """Write the inputs of `workload` for `seed` into `outdir`; return its jobs."""
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    _write(outdir, "warmup.json", json.dumps(_matrix_obj(oracle.matrix("fourier:4"))))
    jobs = _GENERATORS[workload](rng, outdir)
    _write(outdir, "manifest.json",
           json.dumps({"workload": workload, "seed": seed, "jobs": jobs}, indent=1))
    return jobs


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED OUTDIR")
    for job in generate(sys.argv[1], int(sys.argv[2]), sys.argv[3]):
        print(job["id"], " ".join(job.get("argv") or job["lib"]))
