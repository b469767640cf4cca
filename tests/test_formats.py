"""The JSON renderer against the element-by-element renderer it replaced.

`_old_render` is the recursive renderer that turned every ndarray into nested
Python lists with `tolist()`, and `_complex_pairs` is the conversion the CLI
applied to complex arrays before rendering them. Together they are the
oracle: every CLI request below must print exactly the bytes they give.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import gghs
from gghs import cli, s_symmetries
from gghs.formats import _fmt_float, render_json
from helpers import connected_graphs, full_catalog


def _complex_pairs(arr):
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _old_render(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _old_render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _old_render(v, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, complex):
        _old_render([obj.real, obj.imag], out)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _old_form(obj):
    """What the CLI handed the renderer: complex arrays as nested [re, im] lists."""
    if isinstance(obj, dict):
        return {k: _old_form(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_old_form(v) for v in obj]
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "c":
        return _complex_pairs(obj)
    return obj


def _old_render_json(obj):
    out = []
    _old_render(_old_form(obj), out)
    return "".join(out)


@pytest.fixture
def oracle_cli(monkeypatch, capsys):
    """Run a CLI request; assert its stdout is the oracle's rendering of its result."""
    results = []

    def spy(obj):
        results.append(obj)
        return render_json(obj)

    monkeypatch.setattr(cli, "render_json", spy)

    def run(*argv):
        code = cli.main([str(a) for a in argv])
        out = capsys.readouterr().out
        assert out == _old_render_json(results[-1]) + "\n", argv
        return code, out

    return run


# ---------------------------------------------------------- CLI requests


def test_state_grid_matches_the_oracle(oracle_cli):
    rng = np.random.default_rng(14)
    rendered = 0
    for label, H in full_catalog():
        for gname, G in connected_graphs(5):
            if H.d**G.n > 4096:
                continue
            digits = ",".join(str(x) for x in rng.integers(0, H.d, G.n))
            code, _ = oracle_cli("state", "--graph", gname, "--hadamard", label, "--digits", digits)
            rendered += code == 0
    assert rendered > 100


def test_rdm_grid_matches_the_oracle(oracle_cli):
    for label, H in full_catalog():
        for gname, G in connected_graphs(5):
            if H.d**G.n > 4096:
                continue
            for site in range(G.n):
                code, _ = oracle_cli(
                    "invariant", "--graph", gname, "--hadamard", label, "--rdm", site
                )
                assert code == 0, (label, gname, site)
    for d in range(2, 7):
        code, _ = oracle_cli("invariant", "--state", f"ghz:3:{d}", "--rdm", 1)
        assert code == 0


def test_witnesses_match_the_oracle(oracle_cli):
    mats = full_catalog()
    for label, H in mats:
        code, _ = oracle_cli("symmetries", label)
        assert code == 0, label
    for l1, H1 in mats:
        for l2, H2 in mats:
            if H1.d != H2.d or H1.d > 6:
                continue
            oracle_cli("equiv", l1, l2)
            oracle_cli("equiv", l1, l2, "--p-equiv")
    for label, H in mats:
        if not H.symmetric or len(s_symmetries(H)) == 1:
            continue
        for gname in ("triangle", "star:4", "cycle:4"):
            code, _ = oracle_cli(
                "stabilizers", "--graph", gname, "--hadamard", label, "--all-symmetries"
            )
            assert code == 0, (label, gname)


def test_decode_error_operators_match_the_oracle(oracle_cli, tmp_path):
    rng = np.random.default_rng(14)
    factorized = 0
    for label, H in full_catalog():
        m = rng.standard_normal((H.d, H.d)) + 1j * rng.standard_normal((H.d, H.d))
        op = tmp_path / f"op{H.d}.json"
        op.write_text(json.dumps({"d": H.d, "entries": _complex_pairs(m)}))
        for gname, G in connected_graphs(4):
            if H.d**G.n > 256:
                continue
            for site in range(G.n):
                for spec in ("Z", "X", op):
                    code, out = oracle_cli(
                        "decode-error", "--graph", gname, "--hadamard", label,
                        "--site", site, "--op", spec,
                    )
                    assert code == 0, (label, gname, site, spec)
                    factorized += json.loads(out)["factorizes"]
    assert factorized > 100


# ------------------------------------------------------------ raw arrays


def _check_array(a):
    assert render_json(a) == _old_render_json(a), a
    assert render_json({"k": [a, a]}) == _old_render_json({"k": [a, a]})


def test_random_arrays_match_the_oracle():
    rng = np.random.default_rng(14)
    for shape in ((1,), (7,), (3, 5), (2, 3, 4), (4096,)):
        _check_array(rng.standard_normal(shape))
        _check_array(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        # Few distinct values, as in graph states, signed zeros among them.
        _check_array(rng.choice([0.0, -0.0, 0.5, -0.5, 1 / 3], size=shape))
        re = rng.choice([0.0, -0.0, 0.25, 1 / math.sqrt(8)], size=shape)
        im = rng.choice([0.0, -0.0, -0.25], size=shape)
        _check_array(re + 1j * im)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_hand_made_arrays_match_the_oracle(d):
    values = [0.0, -0.0, 1e-300, -1e-300, 1e300, 2.0, -3.0, 1e12, 123456789012345.0, 0.1]
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    for v in values:
        _check_array(np.array([v]))
        _check_array(np.array([complex(v, 1.0), complex(1.0, v), complex(v, v)]))
    _check_array(np.array(zeros))
    _check_array(np.array(zeros).reshape(2, 2))
    rng = np.random.default_rng(d)
    sq = rng.choice(values, size=(d, d)) + 1j * rng.choice(values, size=(d, d))
    _check_array(sq)
    _check_array(np.stack([sq.real, sq.imag], axis=-1))  # shape (d, d, 2)
    _check_array(np.eye(d))
    for shape in ((0,), (d, 0), (0, d), (d, 0, 2)):
        _check_array(np.zeros(shape))
        _check_array(np.zeros(shape, dtype=np.complex128))
    assert render_json(np.zeros(0, dtype=np.complex128)) == "[]"


@pytest.mark.parametrize(
    "a",
    [
        np.array([1.0, math.nan, math.inf]),
        np.array([[0.0, 1.0], [-math.inf, math.nan]]),
        np.array([1.0 + 0j, complex(1.0, math.inf), complex(math.nan, 0.0)]),
        np.array([complex(math.nan, math.inf)]),
        np.array([complex(2.0, -math.inf), complex(math.inf, 0.0)]),
        np.array([[0j, 1j], [complex(-math.inf, math.nan), 0j]]),
        np.array([complex(5.0, math.inf), complex(1.0, -math.inf)]),  # sorts -inf first
    ],
)
def test_non_finite_arrays_raise_the_same_error(a):
    with pytest.raises(ValueError) as old:
        _old_render_json(a)
    with pytest.raises(ValueError) as new:
        render_json(a)
    assert str(new.value) == str(old.value)
    assert "cannot be serialized" in str(new.value)


# ----------------------------------------------------------- large state


def test_state_at_two_to_the_twenty_renders_in_bounded_time(tmp_path):
    # 4**10 amplitudes with 71 distinct values; the element-by-element
    # renderer took 5-7 s for this array alone.
    src = os.path.dirname(os.path.dirname(gghs.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "gghs.cli", "state", "--graph", "line:10", "--hadamard", "fourier:4"]
    out = tmp_path / "line10.json"
    printed = []
    for extra in ([], ["--out", str(out)]):
        start = time.perf_counter()
        proc = subprocess.run(argv + extra, env=env, capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 4.0, extra
        assert proc.returncode == 0, proc.stderr[-300:]
        printed.append(proc.stdout)
    assert out.read_text() == printed[0]
    assert printed[0].startswith('{"n": 10, "d": 4, "amps": [[')
    assert printed[0].count("], [") == 4**10 - 1
