"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _out(obj) -> bytes:
    return json.dumps(obj).encode()


def test_compare_uses_tolerance_not_bytes():
    assert check.compare({"A": [1, 1e-31]}, {"A": [1, 7e-31]}) is None
    assert check.compare({"i6": 0.0239673830209}, {"i6": 0.0239673830209 + 1e-12}) is None
    assert check.compare({"i6": 0.024}, {"i6": 0.0150}) is not None
    assert check.compare({"valid": 1}, {"valid": True}) is not None
    assert check.compare({"b": 1, "a": 2}, {"a": 2, "b": 1}) is not None


def test_code_certificate(tmp_path):
    checker = check.Checker(str(tmp_path), {})
    job = {"id": "c", "check": {"type": "code", "n": 3, "d": 4, "K": 4}}
    # triangle, h_alpha:pi/5, K=4: the documented distance-1 answer
    good = {"n": 3, "K": 4, "distance": 1,
            "A": [1, 9.5e-32, 7.64323725422, 7.35676274578],
            "B": [1, 7.64323725422, 29.7135254916, 217.643237254]}
    assert checker.check(job, 0, _out(good)) is None
    assert checker.check(job, 0, _out(dict(good, distance=2))) is not None
    assert checker.check(job, 0, _out(dict(good, A=[1, 0, 7.64323725422, 8.0]))) is not None
    assert checker.check(job, 1, _out(good)) == "exit code 1"


def test_tail_level():
    xs = list(range(1, 21))
    assert run.tail(xs, 1 - 10 / 20) == 10  # ten samples beyond
    assert run.tail(xs, 1.0) == 20


def test_same_seed_same_inputs(tmp_path):
    a = workloads.generate("dense", 7, str(tmp_path / "a"))
    b = workloads.generate("dense", 7, str(tmp_path / "b"))
    assert a == b
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_cli_small(trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-small", "--quick",
         "--seed", "5", "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stdout + p.stderr
    assert "quick check: 0 failed" in p.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
