import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gghs import bipartition, build, errors, family
from gghs._limits import GRAPH_EDGE_CAP


def test_build_normalizes_and_dedups():
    G = build(4, [(2, 0), (0, 2), (1, 3)])
    assert G.edges == ((0, 2), (1, 3))
    assert G.neighbors(0) == (2,)
    assert G.degree(3) == 1


def test_build_rejects_self_loop():
    with pytest.raises(errors.SelfLoop):
        build(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(errors.IndexOutOfRange):
        build(3, [(0, 3)])


def test_single_vertex():
    G = build(1, [])
    assert G.n == 1 and G.edges == ()


def test_build_and_family_refuse_non_integers():
    with pytest.raises(TypeError):
        build(3, [(0.9, 2.7)])
    with pytest.raises(TypeError):
        build(3.0, [(0, 1)])
    with pytest.raises(TypeError):
        family("line", 3.7)
    G = build(np.int64(3), [(np.int32(0), np.int64(2))])
    assert (G.n, G.edges) == (3, ((0, 2),)) and type(G.n) is int
    assert family("line", np.int64(4)) == family("line", 4)


def test_family_shapes():
    star = family("star", 4)
    assert star.edges == ((0, 1), (0, 2), (0, 3))
    assert all(0 in e for e in star.edges)

    line = family("line", 4)
    assert line.edges == ((0, 1), (1, 2), (2, 3))

    cyc = family("cycle", 4)
    assert cyc.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    assert family("triangle").edges == family("complete", 3).edges
    assert len(family("complete", 5).edges) == 10
    assert family("star", 2).edges == family("line", 2).edges == ((0, 1),)


def test_family_errors():
    with pytest.raises(errors.UnknownName):
        family("wheel", 4)
    with pytest.raises(errors.BadSize):
        family("cycle", 2)
    with pytest.raises(errors.BadSize):
        family("star", 1)
    with pytest.raises(errors.BadSize):
        family("triangle", 4)
    with pytest.raises(errors.BadSize):
        family("line")


def test_family_vertex_count_is_an_integer():
    # The triangle's n goes through operator.index like every other family's.
    for name in ("triangle", "line"):
        with pytest.raises(TypeError):
            family(name, 3.0)
    assert family("triangle", 3).edges == family("triangle").edges


def test_family_edge_cap():
    assert len(family("line", GRAPH_EDGE_CAP + 1).edges) == GRAPH_EDGE_CAP
    for name, n in (("line", GRAPH_EDGE_CAP + 2), ("cycle", GRAPH_EDGE_CAP + 1), ("complete", 363)):
        with pytest.raises(errors.TooLarge, match=f"n={n} has"):
            family(name, n)


def test_bipartition_examples():
    assert bipartition(family("cycle", 4)) == (frozenset({0, 2}), frozenset({1, 3}))
    assert bipartition(family("triangle")) is None
    assert bipartition(family("star", 5)) == (frozenset({0}), frozenset({1, 2, 3, 4}))
    assert bipartition(family("cycle", 5)) is None
    assert bipartition(family("cycle", 6)) is not None


def test_bipartition_lowest_vertex_per_component():
    # two components: an edge and an isolated pair
    G = build(4, [(1, 2)])
    v1, v2 = bipartition(G)
    assert 0 in v1 and 1 in v1 and 3 in v1
    assert v2 == frozenset({2})


@given(
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_bipartition_certifies_two_coloring(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
    G = build(n, edges)
    parts = bipartition(G)
    if parts is None:
        return
    v1, v2 = parts
    assert v1 | v2 == frozenset(range(n))
    assert not (v1 & v2)
    for u, v in G.edges:
        assert (u in v1) != (v in v1)
