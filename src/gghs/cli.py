"""Batch command-line front end.

Every subcommand prints one JSON object (or `key: value` lines with --text) to
stdout and exits 0 when the computation ran, 1 on a domain error, 2 on
malformed input. Matrix, graph, state and operator arguments are one of these
shorthands, NAME[:ARG[:ARG]], or else a file path (colons allowed):

  matrices:   fourier:D  h_alpha:EXPR (EXPR may use pi, e.g. pi/5)
              tilde_a  tilde_b  tilde_c  tilde_d  h_d6  qutrit_h2
  graphs:     star:N  line:N  cycle:N  complete:N  triangle[:3]
  states:     ghz:N:D
  operators:  X[:A]  Z[:B]  weyl:A:B (each is X^A Z^B)

Identical invocations produce byte-identical JSON: floats are rendered at 12
significant digits in a fixed key order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import errors
from ._limits import TOL_ENTRY
from .formats import (
    graph_from_obj,
    matrix_entries_from_obj,
    render_json,
    render_text,
    state_from_obj,
    state_to_obj,
    words_from_text,
)
from .graphs import FAMILIES, Graph, family
from .hadamard import (
    CATALOG,
    GENERAL,
    P_EQUIV,
    HadamardMatrix,
    catalog,
    check_witness,
    find_equivalence,
    fourier,
    s_symmetries,
    validate,
)
from .qstate import _check_graph_state, _check_normalized, ghz, graph_state, pauli_xz


class Malformed(Exception):
    """Input that cannot be resolved or parsed; maps to exit code 2."""


def _read_file(path: str, parse, text: bool = False):
    """parse(content) for the file at path, content being its text or the
    JSON value in it; Malformed when the file cannot be read or decoded, or
    parse rejects it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read() if text else json.load(fh)
    except OSError as exc:
        raise Malformed(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 as well as bad JSON
        raise Malformed(f"{path!r} is not {'UTF-8 text' if text else 'valid JSON'}: {exc}") from exc
    try:
        return parse(content)
    except (KeyError, ValueError, TypeError) as exc:
        raise Malformed(f"{path!r}: {exc}") from exc


def _parse_real(expr: str) -> float:
    """Real number, optionally using `pi` (e.g. pi/5, 3*pi/2)."""
    # Without `**` the value's size grows at most linearly with the input.
    allowed = set("0123456789.+-*/() pie")
    if not expr or set(expr) - allowed or "**" in expr:
        raise Malformed(f"cannot parse real number {expr!r}")
    try:
        value = float(eval(expr, {"__builtins__": {}}, {"pi": math.pi, "e": math.e}))
    except Exception as exc:
        raise Malformed(f"cannot parse real number {expr!r}: {exc}") from exc
    if not math.isfinite(value):
        raise Malformed(f"real number {expr!r} is not finite")
    return value


def _parse_ints(text: str, option: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise Malformed(f"{option} wants comma-separated integers, got {text!r}") from exc


def _weyl(d: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b on d levels."""
    X, Z = pauli_xz(d)
    return np.linalg.matrix_power(X, a % d) @ np.linalg.matrix_power(Z, b % d)


# The shorthands of each kind: name -> (builder, the argument counts it
# takes, the parser of each argument).
_MATRICES = {
    "fourier": (fourier, (1,), int),
    "h_alpha": (partial(catalog, "h_alpha"), (1,), _parse_real),
    **{name: (partial(catalog, name), (0,), int) for name in CATALOG},
}
_GRAPHS = {
    name: (partial(family, name), (0, 1) if name == "triangle" else (1,), int) for name in FAMILIES
}
_STATES = {"ghz": (ghz, (2,), int)}
_OPERATORS = {  # builders take d first
    "X": (lambda d, a=1: _weyl(d, a, 0), (0, 1), int),
    "Z": (lambda d, b=1: _weyl(d, 0, b), (0, 1), int),
    "weyl": (_weyl, (2,), int),
}


def _resolve(spec: str, shorthands: dict, what: str, parse, *lead):
    """builder(*lead, *args) for a shorthand NAME[:ARG[:ARG]] in shorthands;
    any other spec is a file path, read by parse."""
    name, *args = spec.split(":")
    if name not in shorthands:
        if not os.path.exists(spec):
            raise Malformed(f"{spec!r} is neither {what} nor an existing file")
        return _read_file(spec, parse)
    build, counts, parse_arg = shorthands[name]
    if len(args) not in counts:
        raise Malformed(f"{name} takes {' or '.join(map(str, counts))} argument(s), got {spec!r}")
    try:
        values = [parse_arg(a) for a in args]
    except ValueError as exc:
        raise Malformed(f"{name} wants integer arguments, got {spec!r}") from exc
    return build(*lead, *values)


def resolve_matrix(spec: str) -> HadamardMatrix:
    return _resolve(spec, _MATRICES, "a catalog name", lambda obj: validate(matrix_entries_from_obj(obj)))


def resolve_graph(spec: str) -> Graph:
    return _resolve(spec, _GRAPHS, "a graph shorthand", graph_from_obj)


def resolve_state(spec: str) -> np.ndarray:
    # ghz:N:D is normalized by construction; a file is checked as it is read.
    return _resolve(spec, _STATES, "ghz:N:D", lambda obj: _check_normalized(state_from_obj(obj)))


def resolve_operator(spec: str, d: int) -> np.ndarray:
    """X^a Z^b, or a Matrix JSON file (not Hadamard-checked)."""
    m = _resolve(spec, _OPERATORS, "an operator shorthand", matrix_entries_from_obj, d)
    if not np.isfinite(m).all():
        raise Malformed(f"{spec!r}: operator entries must be finite")
    return m


def _witness_obj(w) -> dict:
    """The fields of a witness: p, d of an S-symmetry; p, d1, d2 of a
    P-equivalence; p1, d1, p2, d2 of a general equivalence."""
    if w.kind == GENERAL:
        return {"p1": list(w.p1), "d1": w.d1, "p2": list(w.p2), "d2": w.d2}
    if w.kind == P_EQUIV:
        return {"p": list(w.p1), "d1": w.d1, "d2": w.d2}
    return {"p": list(w.p1), "d": w.d1}


# ---------------------------------------------------------------- subcommands


def cmd_validate(args) -> dict:
    try:
        H = resolve_matrix(args.matrix)
    except (errors.NotUnimodular, errors.NotHadamard) as exc:
        return {"valid": False, "symmetric": False, "dephased": False, "reason": exc.detail}
    return {"valid": True, "symmetric": H.symmetric, "dephased": H.dephased}


def cmd_equiv(args) -> dict:
    H1 = resolve_matrix(args.matrix1)
    H2 = resolve_matrix(args.matrix2)
    kind = P_EQUIV if args.p_equiv else GENERAL
    w = find_equivalence(H1, H2, kind)
    if w is None:
        return {"equivalent": False, "kind": kind}
    return {"equivalent": True, "kind": kind, **_witness_obj(w), "deviation": check_witness(H1, H2, w)}


def cmd_symmetries(args) -> dict:
    H = resolve_matrix(args.matrix)
    syms = s_symmetries(H)
    return {"count": len(syms), "symmetries": [_witness_obj(w) for w in syms]}


def cmd_state(args) -> dict:
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    digits = None
    if args.digits is not None:
        digits = _parse_ints(args.digits, "--digits")
        if len(digits) != G.n:
            raise Malformed(f"--digits wants {G.n} entries, got {len(digits)}")
    s = graph_state(G, H, input_digits=digits)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(render_json(state_to_obj(s)))
                fh.write("\n")
        except OSError as exc:
            raise Malformed(f"cannot write {args.out!r}: {exc}") from exc
        return {"n": s.ndim, "d": s.shape[0], "norm": float(np.linalg.norm(s)), "written": args.out}
    return state_to_obj(s)


def cmd_invariant(args) -> dict:
    from .entangle import i6, reduced_density, schmidt_spectrum

    pair = (args.graph, args.hadamard)
    if args.state is not None and pair == (None, None):
        s = resolve_state(args.state)
    elif args.state is None and None not in pair:
        s = (resolve_graph(args.graph), resolve_matrix(args.hadamard))
        _check_graph_state(*s)  # its errors come before --schmidt is parsed
    else:
        raise Malformed("invariant wants either --state or both --graph and --hadamard")
    if args.schmidt is not None:
        return {"schmidt": schmidt_spectrum(s, _parse_ints(args.schmidt, "--schmidt"))}
    if args.rdm is not None:
        return {"site": args.rdm, "rdm": reduced_density(s, [args.rdm])}
    return {"i6": i6(s)}


def cmd_stabilizers(args) -> dict:
    """Each generator's deviation ||K_a psi - psi||, read off its S-symmetry.

    A graph state's amplitude is prod_k u[i_k, 0] (u = H/sqrt(d)) times
    h[i_a, i_b] per edge. With H symmetric, P H D = H reads H[p(i), j] =
    H[i, j] D_j, so K_a keeps each edge factor at a and divides u[i_a, 0] by
    D_0: K_a psi = psi/D_0, a deviation of |1 - D_0| on any graph. As
    s_symmetries admits P H D = H within eps = TOL_ENTRY per entry, the
    deviation measured on a built state may differ by about (deg a + 1) eps.
    """
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    _check_graph_state(G, H)  # its errors come before the S-symmetry search
    syms = s_symmetries(H)
    # The lex-first non-identity symmetry unless --all-symmetries; the identity sorts first.
    chosen = list(enumerate(syms)) if args.all_symmetries or len(syms) == 1 else [(1, syms[1])]
    checked = []
    for idx, w in chosen:
        dev = float(abs(1 - w.d1[0]))
        gens = [{"vertex": a, "verified": dev <= args.tol, "deviation": dev} for a in range(G.n)]
        checked.append({"symmetry_index": idx, **_witness_obj(w), "generators": gens})
    all_ok = all(g["verified"] for c in checked for g in c["generators"])
    return {"available_symmetries": len(syms), "checked": checked, "all_verified": all_ok}


def cmd_peps_check(args) -> dict:
    """The PEPS against the encoding circuit, answered without building either.

    The network (one bond state sum h_ij|ij> per edge, its legs merged by a
    copy tensor at each site that also carries the input column H[:, 0]) and
    the circuit D u^(x n)|0> multiply the same factors, H[:, 0] per site and
    h per edge, at each digit string: no index is summed. So the two
    normalized states are equal and the fidelity is 1. The contraction is
    kept as a test oracle of _encode; over the connected graphs of up to 5
    vertices and every symmetric catalog matrix (d**n <= 2**16), the two
    states agree to 1.4e-16 in every entry.
    """
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    _check_graph_state(G, H)  # refuses what building either state would refuse
    return {"fidelity": 1.0, "pass": True}


def cmd_code(args) -> dict:
    from .codes import build_code, kl_distance, weight_enumerators

    if args.distance is not None and args.distance < 1:
        raise Malformed(f"--distance wants a weight >= 1, got {args.distance}")
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    V = build_code(G, H, _read_file(args.classical, words_from_text, text=True))
    out: dict = {"n": G.n, "K": V.shape[-1]}
    if args.distance is not None:
        out["distance"] = kl_distance(V, args.distance)
        if out["distance"] is None:
            out["distance_exceeds"] = min(args.distance, G.n)
    if args.enumerators:
        out["A"], out["B"] = weight_enumerators(V)
    return out


def cmd_decode_error(args) -> dict:
    from .codes import decoded_error

    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    E = resolve_operator(args.op, H.d)
    ok, S, residual = decoded_error(G, H, E, args.site)
    return {"factorizes": ok, "residual": residual, "site_operator": S}


# -------------------------------------------------------------------- driver


def _tolerance(text: str) -> float:
    """The --tol type. Malformed passes through parse_args to main's handler."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise Malformed(f"--tol wants a finite value >= 0, got {tol}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    # Each option is declared once and given to the subcommands that read it.
    text = argparse.ArgumentParser(add_help=False)
    text.add_argument("--text", dest="fmt", action="store_const", const="text", default="json",
                      help="print key: value lines instead of JSON")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=TOL_ENTRY,
                     help="pass/fail tolerance (default %(default)s)")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--graph", required=True)
    pair.add_argument("--hadamard", required=True)

    p = argparse.ArgumentParser(prog="gghs", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, fn, summary, *parents):
        q = sub.add_parser(name, help=summary, parents=[text, *parents])
        q.set_defaults(fn=fn)
        return q

    q = command("validate", cmd_validate, "check the Hadamard invariants")
    q.add_argument("matrix")

    q = command("equiv", cmd_equiv, "search for an equivalence witness")
    q.add_argument("matrix1")
    q.add_argument("matrix2")
    q.add_argument("--p-equiv", action="store_true", help="restrict to one simultaneous permutation")

    q = command("symmetries", cmd_symmetries, "list all S-symmetries (P, D)")
    q.add_argument("matrix")

    q = command("state", cmd_state, "build a graph state", pair)
    q.add_argument("--digits", help="comma-separated input digits, default all zeros")
    q.add_argument("--out", help="write State JSON here instead of stdout")

    q = command("invariant", cmd_invariant, "entanglement invariants")
    q.add_argument("--graph")
    q.add_argument("--hadamard")
    q.add_argument("--state", help="State JSON file or ghz:N:D, instead of --graph/--hadamard")
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--i6", action="store_true", help="degree-6 invariant (default)")
    mode.add_argument("--schmidt", metavar="PART", help="squared Schmidt spectrum across PART|rest")
    mode.add_argument("--rdm", type=int, metavar="SITE", help="single-site reduced density matrix")

    q = command("stabilizers", cmd_stabilizers, "verify the stabilizer generators", pair, tol)
    q.add_argument("--all-symmetries", action="store_true", help="use every S-symmetry, not the lex-first")

    command("peps-check", cmd_peps_check, "tensor-network contraction fidelity", pair)

    q = command("code", cmd_code, "build a code, optional distance/enumerators", pair)
    q.add_argument("--classical", required=True, help="codeword text file, one word per line")
    q.add_argument("--distance", type=int, metavar="W", help="Knill-Laflamme scan up to weight W")
    q.add_argument("--enumerators", action="store_true", help="weight enumerators A, B")

    q = command("decode-error", cmd_decode_error, "conjugate a site error by the circuit", pair)
    q.add_argument("--site", type=int, required=True)
    q.add_argument("--op", required=True, help="X, Z, X:a, Z:b, weyl:a:b, or a Matrix JSON file")

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.fn(args)
    except Malformed as exc:
        print(render_json({"error": "malformed_input", "detail": str(exc)}))
        return 2
    except errors.GGHSError as exc:
        print(render_json({"error": exc.code, "detail": exc.detail}))
        return 1
    if args.fmt == "text":
        print(render_text(result))
    else:
        print(render_json(result))
    return 0


def _entry() -> None:
    """`python -m gghs.cli` and the `gghs` console script: main() on sys.argv,
    then flush stdout and stderr and leave with its code through os._exit,
    which skips the interpreter's exit-time collections and teardown. A
    reader that closes stdout early ends the run at exit 1 with nothing on
    stderr, since no flush at exit retries the write. Usage errors and -h
    leave earlier, through argparse's SystemExit."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    _entry()
