"""On-disk formats and the deterministic JSON renderer.

Matrix JSON:  {"d": d, "entries": [[[re, im], ...] x d] x d}
Graph JSON:   {"n": n, "edges": [[u, v], ...]}
State JSON:   {"n": n, "d": d, "amps": [[re, im], ...]}  (length d**n, C order
              of the state's (d,)*n array)
Code text:    one codeword per line, one ASCII digit 0-9 per site; '#' starts
              a comment, and blank lines are skipped. words_from_text reads
              it as digit tuples; build_code checks them against the graph
              and the matrix.

The integer fields (n, d and the edge endpoints) must be JSON integers:
true, false and floats, 3.0 included, raise ValueError rather than being
truncated or read as 0 and 1.

render_json writes floats at 12 significant digits with a fixed key order
(insertion order of the dicts handed to it), so identical inputs produce
byte-identical output. A complex number is written as [re, im].

A real or complex ndarray is rendered without nested Python lists: its
distinct values (`np.unique`) are each formatted once, gathered back into C
order by the inverse index and joined axis by axis. Graph-state amplitudes
are products of Hadamard entries and take few distinct values, so a d**n
array costs a sort and a join, not d**n calls to the formatter. The bytes
are those of rendering `a.tolist()` element by element.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from ._limits import _dense_size
from .graphs import Graph, build


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def _render(obj: Any, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        out.append(_render_array(obj))
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, complex):
        _render([obj.real, obj.imag], out)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_array(a: np.ndarray) -> str:
    """A real or complex ndarray, formatting each distinct value once."""
    is_complex = a.dtype.kind == "c"
    flat = a.astype(np.complex128 if is_complex else np.float64, copy=False).reshape(-1)
    bad = ~np.isfinite(flat)
    if bad.any():
        # Raise on the first non-finite value in C order, real part before
        # imaginary, as the element-by-element walk would. NaN breaks
        # np.unique's equality, so this check comes first.
        k = int(np.argmax(bad))
        for part in (flat.real, flat.imag) if is_complex else (flat,):
            _fmt_float(float(part[k]))
    uniq, inverse = np.unique(flat, return_inverse=True)
    if is_complex:
        strs = [
            f"[{_fmt_float(re)}, {_fmt_float(im)}]"
            for re, im in zip(uniq.real.tolist(), uniq.imag.tolist())
        ]
    else:
        strs = [_fmt_float(x) for x in uniq.tolist()]
    items = np.array(strs, dtype=object)[inverse].tolist()
    for k in range(a.ndim - 1, -1, -1):
        m, rows = a.shape[k], math.prod(a.shape[:k])
        items = ["[" + ", ".join(items[i * m : (i + 1) * m]) + "]" for i in range(rows)]
    return items[0]


def render_json(obj: Any) -> str:
    out: list = []
    _render(obj, out)
    return "".join(out)


def render_text(obj: Any) -> str:
    """One `key: value` line per top-level dict entry."""
    if not isinstance(obj, dict):
        return render_json(obj)
    return "\n".join(f"{k}: {render_json(v)}" for k, v in obj.items())


def pairs_to_complex(obj) -> np.ndarray:
    """[re, im] pairs as complex; ValueError unless each part is a JSON number.

    An array numpy reads as integers or floats goes straight through; any
    other (strings, booleans, null, integers past int64) is walked entry by
    entry. A boolean among numbers is promoted by numpy and not caught."""
    a = np.asarray(obj)
    if a.dtype.kind not in "iuf":
        a = np.asarray(obj, dtype=object)
        for x in a.flat:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"expected a number, got {x!r}")
        try:
            a = a.astype(np.float64)
        except OverflowError as exc:
            raise ValueError(f"a number is past the float range: {exc}") from exc
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError("expected [re, im] pairs on the last axis")
    return a[..., 0] + 1j * a[..., 1]


def _json_int(value, what: str) -> int:
    """value as an int if it is a JSON integer; bools and floats raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def matrix_entries_from_obj(obj) -> np.ndarray:
    d = _json_int(obj["d"], "d")
    entries = pairs_to_complex(obj["entries"])
    if entries.shape != (d, d):
        raise ValueError(f"entries shape {entries.shape} does not match d={d}")
    return entries


def graph_from_obj(obj) -> Graph:
    n = _json_int(obj["n"], "n")
    return build(n, [(_json_int(u, "edge endpoint"), _json_int(v, "edge endpoint"))
                     for u, v in obj["edges"]])


def words_from_text(text: str) -> tuple:
    """The codewords of code text as digit tuples, in file order."""
    words = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if not (line.isascii() and line.isdigit()):
            raise ValueError(f"word {line!r} is not a string of the ASCII digits 0-9")
        words.append(tuple(int(ch) for ch in line))
    return tuple(words)


def state_to_obj(s: np.ndarray) -> dict:
    return {"n": s.ndim, "d": s.shape[0], "amps": s.reshape(-1)}


def state_from_obj(obj) -> np.ndarray:
    n = _json_int(obj["n"], "n")
    d = _json_int(obj["d"], "d")
    amps = pairs_to_complex(obj["amps"])
    if n < 0 or d < 1 or amps.shape != (_dense_size(n, d),):
        raise ValueError(f"amps shape {amps.shape} does not match n={n}, d={d}")
    if not np.isfinite(amps).all():
        raise ValueError("amps hold a non-finite value")
    return amps.reshape((d,) * n)
