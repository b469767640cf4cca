"""Shared inventories for the test grid: catalog matrices and small graphs."""

import math

from gghs import catalog, family, fourier

PI = math.pi


def full_catalog():
    """Every matrix constructor exposed by the library, one sample per family.

    Labels are the CLI shorthand spellings so failures name the offending
    matrix directly.
    """
    out = [(f"fourier:{d}", fourier(d)) for d in range(2, 7)]
    out += [
        ("h_alpha:0", catalog("h_alpha", 0.0)),
        ("h_alpha:pi/5", catalog("h_alpha", PI / 5)),
        ("h_alpha:pi/2", catalog("h_alpha", PI / 2)),
        ("tilde_a", catalog("tilde_a")),
        ("tilde_b", catalog("tilde_b")),
        ("tilde_c", catalog("tilde_c")),
        ("tilde_d", catalog("tilde_d")),
        ("qutrit_h2", catalog("qutrit_h2")),
        ("h_d6", catalog("h_d6")),
    ]
    return out


def connected_graphs(max_n=5, min_n=2):
    """Named connected graphs with min_n <= n <= max_n, no duplicates."""
    out = []
    for n in range(max(min_n, 2), max_n + 1):
        out.append((f"star:{n}", family("star", n)))
        if n >= 3:
            out.append((f"line:{n}", family("line", n)))
            out.append((f"cycle:{n}", family("cycle", n)))
    if max_n >= 4:
        for n in range(4, max_n + 1):
            out.append((f"complete:{n}", family("complete", n)))
    return out


def cut_rank(G, part, p):
    """Rank over Z_p of the adjacency block Gamma[part, rest] of G."""
    part = sorted(part)
    rest = [v for v in range(G.n) if v not in part]
    rows = [[int((min(a, b), max(a, b)) in G.edges) for b in rest] for a in part]
    rank = 0
    for c in range(len(rest)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank
