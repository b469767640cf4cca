"""Output checker: decides whether one job's answer is right.

Where it can, it uses a certificate that does not depend on the code under
test (closed-form states and spectra, enumerator sum rules). Everything else is compared at 1e-9 to `reference.json`, which holds
the answers of the commit that added the benchmark, documented mismatches
included.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

import oracle

TOL = 1e-9
# Knill-Laflamme violations of the generated codes are exact algebraic terms
# of order 1; B_j - A_j at or below this is float noise in a sum of squares.
KL_GAP = 1e-6

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_references() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(argv) -> str:
    return " ".join(argv)


def _close(a, b) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def compare(got, want, path="$") -> Optional[str]:
    """None when `got` matches `want` with numbers equal within TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {list(want)}"
        for k in want:
            err = compare(got[k], want[k], f"{path}.{k}")
            if err:
                return err
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: expected a list of {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            err = compare(g, w, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"
    if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(got, want):
        return f"{path}: {got!r} != {want!r}"
    return None


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class Checker:
    """Checks job outputs for one generated input directory.

    Expected answers that cost real work (1M-amplitude states) are computed
    once per job and kept for the later passes of the same run.
    """

    def __init__(self, workdir: str, references: dict):
        self.workdir = workdir
        self.refs = references
        self._expected = {}

    def check(self, job: dict, rc: int, stdout: bytes) -> Optional[str]:
        """None when the job's answer is right, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            out = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON object"
        kind = job["check"]["type"]
        try:
            return getattr(self, "_" + kind)(job, out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"{kind}: malformed output ({type(exc).__name__}: {exc})"

    def _memo(self, job, fn):
        if job["id"] not in self._expected:
            self._expected[job["id"]] = fn()
        return self._expected[job["id"]]

    def _ref(self, job, out):
        key = reference_key(job["argv"])
        if key not in self.refs:
            return f"no reference answer for {key!r}"
        return compare(out, self.refs[key])

    def _state(self, job, out):
        c = job["check"]
        want = self._memo(job, lambda: oracle.graph_state(c["graph"], c["matrix"], c["digits"]))
        if (out["n"], out["d"]) != (want.ndim, want.shape[0]):
            return f"state shape n={out['n']} d={out['d']}"
        got = _complex(out["amps"])
        if got.shape != (want.size,):
            return f"{got.shape[0]} amplitudes, expected {want.size}"
        dev = float(np.max(np.abs(got - want.reshape(-1))))
        return None if dev <= TOL else f"amplitudes deviate by {dev:.3e}"

    def _schmidt(self, job, out):
        c = job["check"]
        want = self._memo(
            job,
            lambda: oracle.schmidt_spectrum(oracle.graph_state(c["graph"], c["matrix"]), c["part"]),
        )
        got = np.asarray(out["schmidt"], dtype=float)
        if got.shape != want.shape:
            return f"{got.size} Schmidt values, expected {want.size}"
        dev = float(np.max(np.abs(got - want)))
        return None if dev <= TOL else f"Schmidt spectrum deviates by {dev:.3e}"

    def _peps(self, job, out):
        if out["pass"] is not True or abs(out["fidelity"] - 1.0) > TOL:
            return f"peps-check {out!r}"
        return None

    def _decode_diag(self, job, out):
        c = job["check"]
        h = oracle.matrix(c["matrix"])
        u = h / np.sqrt(h.shape[0])
        want = u.conj().T @ oracle.pauli_z_power(h.shape[0], c["power"]) @ u
        if out["factorizes"] is not True or out["residual"] > TOL:
            return f"diagonal error did not factorize: {out!r}"
        dev = float(np.max(np.abs(_complex(out["site_operator"]) - want)))
        return None if dev <= TOL else f"site operator deviates by {dev:.3e}"

    def _hamiltonian(self, job, out):
        # The spectrum is -(number of zero digits) in the circuit basis.
        ok = out["ground_dim"] == 1 and _close(out["gap"], 1.0) and _close(out["fidelity"], 1.0)
        return None if ok else f"hamiltonian_ground_check {out!r}"

    def _code(self, job, out):
        """Enumerator sum rules, and the distance read back from A and B.

        Sum over all d**(2n) Weyl errors: sum A_j = d**n / K, sum B_j = d**n * K.
        B_j - A_j = (1/K) sum_{wt E = j} ||PEP - lambda_E P||^2 >= 0, zero exactly
        when every weight-j error meets Knill-Laflamme; for K = 1, A_j is the
        sum of squared expectations. The distance is the first j where that
        quantity is nonzero.
        """
        c = job["check"]
        n, d, K = c["n"], c["d"], c["K"]
        if (out["n"], out["K"]) != (n, K):
            return f"code n={out['n']} K={out['K']}, expected n={n} K={K}"
        A, B = np.asarray(out["A"], dtype=float), np.asarray(out["B"], dtype=float)
        if A.shape != (n + 1,) or B.shape != (n + 1,):
            return "enumerators have the wrong length"
        if not (_close(A[0], 1.0) and _close(B[0], 1.0)):
            return f"A_0={A[0]!r} B_0={B[0]!r}"
        if not (_close(A.sum(), d**n / K) and _close(B.sum(), d**n * K)):
            return f"sum rules fail: sum A={float(A.sum())!r} sum B={float(B.sum())!r}"
        if np.any(A < -TOL) or np.any(B - A < -TOL * np.maximum(1.0, B)):
            return "enumerators violate B_j >= A_j >= 0"
        violation = (A if K == 1 else B - A)[1:] > KL_GAP
        first = int(np.argmax(violation)) + 1 if violation.any() else None
        if out["distance"] is None:
            w = out["distance_exceeds"]
            return None if first is None or first > w else f"no violation up to {w}, A/B say {first}"
        return None if out["distance"] == first else f"distance {out['distance']}, A/B say {first}"
