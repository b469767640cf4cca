"""Batch command-line front end.

Every subcommand prints one JSON object (or `key: value` lines with --text) to
stdout and exits 0 when the computation ran, 1 on a domain error, 2 on
malformed input. Matrix, graph, and state arguments accept either a file path
or a shorthand name:

  matrices:  fourier:D      h_alpha:EXPR (EXPR may use pi, e.g. pi/5)
             tilde_a tilde_b tilde_c tilde_d  h_d6  qutrit_h2
  graphs:    star:N  line:N  cycle:N  complete:N  triangle
  states:    ghz:N:D

Identical invocations produce byte-identical JSON: floats are rendered at 12
significant digits in a fixed key order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import errors
from ._tol import TOL_ENTRY
from .codes import ClassicalCode, build_code, kl_distance, weight_enumerators, decoded_error
from .entangle import i6, reduced_density, schmidt_spectrum
from .formats import (
    graph_from_obj,
    matrix_entries_from_obj,
    render_json,
    render_text,
    state_from_obj,
    state_to_obj,
)
from .graphs import Graph, family, neighbourhood
from .hadamard import (
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
from .qstate import LocalOperator, StateVector, _check_graph_state, ghz, graph_state, overlap
from .symmetry import pauli_xz, stabilizer_from_symmetry, verify_stabilizer
from .tensornet import peps_contract


class Malformed(Exception):
    """Input that cannot be resolved or parsed; maps to exit code 2."""


_GRAPH_FAMILIES = ("star", "line", "cycle", "complete", "triangle")
_CATALOG_NAMES = ("tilde_a", "tilde_b", "tilde_c", "tilde_d", "h_d6", "qutrit_h2")


def _read_json_file(path: str, parse):
    """parse(obj) for the JSON object in the file at path; Malformed when
    the file cannot be read, is not JSON, or parse rejects it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise Malformed(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 as well as bad JSON
        raise Malformed(f"{path!r} is not valid JSON: {exc}") from exc
    try:
        return parse(obj)
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


def resolve_matrix(spec: str) -> HadamardMatrix:
    if ":" in spec:
        name, _, arg = spec.partition(":")
        if name == "fourier":
            try:
                d = int(arg)
            except ValueError as exc:
                raise Malformed(f"fourier wants an integer dimension, got {arg!r}") from exc
            return fourier(d)
        if name == "h_alpha":
            return catalog("h_alpha", _parse_real(arg))
        raise Malformed(f"unknown matrix shorthand {name!r}")
    if spec in _CATALOG_NAMES:
        return catalog(spec)
    if not os.path.exists(spec):
        raise Malformed(f"{spec!r} is neither a catalog name nor an existing file")
    return validate(_read_json_file(spec, matrix_entries_from_obj))


def resolve_graph(spec: str) -> Graph:
    if spec == "triangle":
        return family("triangle")
    if ":" in spec:
        name, _, arg = spec.partition(":")
        if name in _GRAPH_FAMILIES:
            try:
                n = int(arg)
            except ValueError as exc:
                raise Malformed(f"{name} wants an integer size, got {arg!r}") from exc
            return family(name, n)
        raise Malformed(f"unknown graph shorthand {name!r}")
    if not os.path.exists(spec):
        raise Malformed(f"{spec!r} is neither a graph shorthand nor an existing file")
    return _read_json_file(spec, graph_from_obj)


def resolve_state(spec: str) -> StateVector:
    if spec.startswith("ghz:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise Malformed("ghz shorthand is ghz:N:D")
        try:
            n, d = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise Malformed(f"ghz wants integers, got {spec!r}") from exc
        return ghz(n, d)
    if not os.path.exists(spec):
        raise Malformed(f"{spec!r} is neither ghz:N:D nor an existing file")
    s = _read_json_file(spec, state_from_obj)
    nrm = s.norm()
    if abs(nrm - 1.0) > 1e-6:
        raise errors.GGHSError(f"state norm {nrm:.6f} is not 1")
    return s


def _parse_digits(text: str, n: int, d: int):
    try:
        digits = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise Malformed(f"--digits wants comma-separated integers, got {text!r}") from exc
    if len(digits) != n:
        raise Malformed(f"--digits wants {n} entries, got {len(digits)}")
    return digits


def _parse_sites(text: str):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise Malformed(f"expected comma-separated site numbers, got {text!r}") from exc


def resolve_operator(spec: str, d: int) -> np.ndarray:
    """Named single-site operators or a Matrix JSON file (not Hadamard-checked)."""
    if spec in ("X", "Z") or spec.startswith(("X:", "Z:", "weyl:")):
        X, Z = pauli_xz(d)
        if spec == "X":
            return X
        if spec == "Z":
            return Z
        parts = spec.split(":")
        try:
            if parts[0] == "weyl":
                if len(parts) != 3:
                    raise Malformed("weyl shorthand is weyl:A:B")
                a, b = int(parts[1]), int(parts[2])
                return np.linalg.matrix_power(X, a % d) @ np.linalg.matrix_power(Z, b % d)
            k = int(parts[1])
        except ValueError as exc:
            raise Malformed(f"operator powers want integers, got {spec!r}") from exc
        base = X if parts[0] == "X" else Z
        return np.linalg.matrix_power(base, k % d)
    if not os.path.exists(spec):
        raise Malformed(f"{spec!r} is neither an operator shorthand nor an existing file")
    m = _read_json_file(spec, matrix_entries_from_obj)
    if not np.isfinite(m).all():
        raise Malformed(f"{spec!r}: operator entries must be finite")
    return m


def _witness_obj(w) -> dict:
    out: dict = {"kind": w.kind}
    if w.kind == P_EQUIV:
        out["p"] = list(w.p1.map)
        out["d1"] = w.d1.phases
        out["d2"] = w.d2.phases
    else:
        out["p1"] = list(w.p1.map)
        out["d1"] = w.d1.phases
        out["p2"] = list(w.p2.map)
        out["d2"] = w.d2.phases
    return out


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
    out = {"equivalent": True, "kind": kind}
    out.update({k: v for k, v in _witness_obj(w).items() if k != "kind"})
    out["deviation"] = check_witness(H1, H2, w)
    return out


def cmd_symmetries(args) -> dict:
    H = resolve_matrix(args.matrix)
    syms = s_symmetries(H)
    return {
        "count": len(syms),
        "symmetries": [
            {"p": list(w.p1.map), "d": w.d1.phases} for w in syms
        ],
    }


def cmd_state(args) -> dict:
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    digits = _parse_digits(args.digits, G.n, H.d) if args.digits else None
    s = graph_state(G, H, input_digits=digits)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(render_json(state_to_obj(s)))
                fh.write("\n")
        except OSError as exc:
            raise Malformed(f"cannot write {args.out!r}: {exc}") from exc
        return {"n": s.n, "d": s.d, "norm": s.norm(), "written": args.out}
    return state_to_obj(s)


def cmd_invariant(args) -> dict:
    if args.state:
        s = resolve_state(args.state)
    else:
        if not (args.graph and args.hadamard):
            raise Malformed("invariant wants either --state or both --graph and --hadamard")
        s = (resolve_graph(args.graph), resolve_matrix(args.hadamard))
        _check_graph_state(*s)  # its errors come before --schmidt is parsed
    if args.schmidt is not None:
        part = _parse_sites(args.schmidt)
        return {"schmidt": schmidt_spectrum(s, part)}
    if args.rdm is not None:
        rho = reduced_density(s, [args.rdm])
        return {"site": args.rdm, "rdm": rho.mat}
    return {"i6": i6(s)}


def cmd_stabilizers(args) -> dict:
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    syms = s_symmetries(H)
    if args.all_symmetries or len(syms) == 1:
        chosen = list(enumerate(syms))
    else:
        chosen = [(1, syms[1])]  # lex-first non-identity; identity sorts first
    _check_graph_state(G, H)
    # K_a is P at a and D at a's neighbours: it commutes with every edge gate
    # not incident to a, so it is checked on the graph state of N[a] alone.
    checked = []
    for idx, w in chosen:
        gens = []
        for a in range(G.n):
            hood, local = neighbourhood(G, [a])
            op = stabilizer_from_symmetry(local, H, w, hood.index(a))
            dev = verify_stabilizer(op, graph_state(local, H))[1]
            gens.append({"vertex": a, "verified": dev <= args.tol, "deviation": dev})
        checked.append(
            {
                "symmetry_index": idx,
                "p": list(w.p1.map),
                "d": w.d1.phases,
                "generators": gens,
            }
        )
    all_ok = all(g["verified"] for c in checked for g in c["generators"])
    return {"available_symmetries": len(syms), "checked": checked, "all_verified": all_ok}


def cmd_peps_check(args) -> dict:
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    s_net = peps_contract(G, H)
    s_circ = graph_state(G, H)
    fid = abs(overlap(s_net, s_circ))
    return {"fidelity": fid, "pass": bool(fid >= 1.0 - args.tol)}


def cmd_code(args) -> dict:
    if args.distance is not None and args.distance < 1:
        raise Malformed(f"--distance wants a weight >= 1, got {args.distance}")
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    try:
        with open(args.classical, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise Malformed(f"cannot read {args.classical!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise Malformed(f"{args.classical!r} is not UTF-8 text: {exc}") from exc
    try:
        C = ClassicalCode.from_text(text, H.d)
    except ValueError as exc:
        raise Malformed(f"{args.classical!r}: {exc}") from exc
    Q = build_code(G, H, C)
    out: dict = {"n": Q.graph.n, "K": Q.K}
    if args.distance is not None:
        res = kl_distance(Q, args.distance)
        if isinstance(res, errors.LowerBoundExceeded):
            out["distance"] = None
            out["distance_exceeds"] = res.max_weight
        else:
            out["distance"] = res
    if args.enumerators:
        A, B = weight_enumerators(Q)
        out["A"] = [float(x) for x in A]
        out["B"] = [float(x) for x in B]
    return out


def cmd_decode_error(args) -> dict:
    G = resolve_graph(args.graph)
    H = resolve_matrix(args.hadamard)
    E = resolve_operator(args.op, H.d)
    res = decoded_error(G, H, LocalOperator(d=H.d, site=args.site, matrix=E))
    out: dict = {"factorizes": res.factorizes, "residual": res.residual}
    out["site_operator"] = res.site_operator
    return out


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

    q = command("stabilizers", cmd_stabilizers, "build and verify stabilizer operators", pair, tol)
    q.add_argument("--all-symmetries", action="store_true", help="use every S-symmetry, not the lex-first")

    command("peps-check", cmd_peps_check, "tensor-network contraction fidelity", pair, tol)

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


if __name__ == "__main__":
    sys.exit(main())
