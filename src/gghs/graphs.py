"""Undirected simple graphs on vertices 0..n-1, named families, and queries."""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from . import errors
from ._limits import GRAPH_EDGE_CAP


@dataclass(frozen=True)
class Graph:
    n: int
    edges: Tuple[Tuple[int, int], ...]  # sorted pairs (u, v) with u < v, deduplicated

    def neighbors(self, v: int) -> tuple:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return tuple(sorted(out))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def build(n: int, edges) -> Graph:
    n = operator.index(n)
    if n < 1:
        raise errors.BadSize("n must be >= 1")
    norm = set()
    for u, v in edges:
        u, v = operator.index(u), operator.index(v)
        if u == v:
            raise errors.SelfLoop(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise errors.IndexOutOfRange(f"edge ({u},{v}) out of range for n={n}")
        norm.add((min(u, v), max(u, v)))
    return Graph(n=n, edges=tuple(sorted(norm)))


# name: (least n, edge count, edge list) of each family; triangle has n = 3 only
FAMILIES = {
    "star": (2, lambda n: n - 1, lambda n: [(0, j) for j in range(1, n)]),
    "line": (2, lambda n: n - 1, lambda n: [(j, j + 1) for j in range(n - 1)]),
    "cycle": (3, lambda n: n, lambda n: [(j, j + 1) for j in range(n - 1)] + [(0, n - 1)]),
    "complete": (
        1,
        lambda n: n * (n - 1) // 2,
        lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    ),
    "triangle": (3, lambda n: 3, lambda n: [(0, 1), (1, 2), (0, 2)]),
}


def family(name: str, n: Optional[int] = None) -> Graph:
    """Named graph families: the FAMILIES names. Only triangle may omit n.

    The edge count is checked against GRAPH_EDGE_CAP before any edge is built.
    """
    if name == "triangle" and n is None:
        n = 3
    if n is None:
        raise errors.BadSize(f"family {name!r} needs a vertex count")
    n = operator.index(n)
    if name == "triangle" and n != 3:
        raise errors.BadSize("triangle has exactly 3 vertices")
    if name not in FAMILIES:
        raise errors.UnknownName(f"unknown graph family {name!r}")
    least, edge_count, edge_list = FAMILIES[name]
    if n < least:
        raise errors.BadSize(f"{name} needs n >= {least}")
    n_edges = edge_count(n)
    if n_edges > GRAPH_EDGE_CAP:
        raise errors.TooLarge(
            f"{name} graph with n={n} has {n_edges} edges, past the cap {GRAPH_EDGE_CAP}"
        )
    return build(n, edge_list(n))


def bipartition(G: Graph) -> Optional[Tuple[frozenset, frozenset]]:
    """BFS 2-coloring. (V1, V2) with V1 holding the lowest vertex of each
    component, or None when an odd cycle exists."""
    color = {}
    for root in range(G.n):
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in G.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    v1 = frozenset(v for v, c in color.items() if c == 0)
    v2 = frozenset(v for v, c in color.items() if c == 1)
    return v1, v2
