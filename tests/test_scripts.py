"""Each script in scripts/ runs with its default arguments and prints its key lines."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [spec.origin])
    module.main()  # parses the defaults and calls run(...)
    return capsys.readouterr().out


def test_reproduce_invariants(monkeypatch, capsys):
    out = run_script("reproduce_invariants", monkeypatch, capsys)
    assert "i6  triangle h_d6             0.023967383020881\n" in out.splitlines(keepends=True)


def test_equivalence_scan(monkeypatch, capsys):
    lines = run_script("equivalence_scan", monkeypatch, capsys).splitlines()
    at = lines.index("fourier:6 vs h_d6  (d=6)")
    assert lines[at + 1] == "  general: no"


def test_code_enumerators(monkeypatch, capsys):
    lines = run_script("code_enumerators", monkeypatch, capsys).splitlines()
    reports = [line for line in lines if line.startswith("  K = 4,")]
    assert len(reports) == 2
    assert all(line.endswith("distance 1") for line in reports)


def test_every_script_has_a_smoke_test():
    tested = {name[len("test_"):] for name in globals() if name.startswith("test_")}
    assert {p.stem for p in SCRIPTS.glob("*.py")} <= tested
