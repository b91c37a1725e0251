"""connected_components (stages/graph.py): exactness on known topologies,
layout independence, and the pointer-doubling round bound (a 512-node path
must converge well inside max_rounds — O(log diameter), not O(diameter))."""

import random

import pyarrow as pa
import pytest


def _edges_ds(edges):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in edges], pa.int64()),
        "doc_b": pa.array([b for _, b in edges], pa.int64()),
    }))


def _run(edges, **kw):
    from jsschema_ray.stages.graph import connected_components

    out = connected_components(_edges_ds(edges), **kw).take_all()
    return sorted((r["node"], r["component"]) for r in out)


def _brute(edges):
    # independent reference: repeated relabel to fixpoint
    lab = {}
    for a, b in edges:
        lab.setdefault(a, a)
        lab.setdefault(b, b)
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            m = min(lab[a], lab[b])
            if lab[a] != m or lab[b] != m:
                lab[a] = lab[b] = m
                changed = True
    return sorted(lab.items())


@pytest.mark.usefixtures("ray_session")
def test_mixed_topologies():
    edges = [(i, i + 1) for i in range(9)]                      # path
    edges += [(a, b) for a in range(100, 105)
              for b in range(a + 1, 105)]                        # clique
    edges += [(200, 201), (300, 301), (301, 302), (300, 302)]    # pair+tri
    random.seed(7)
    random.shuffle(edges)
    assert _run(edges) == _brute(edges)


@pytest.mark.usefixtures("ray_session")
def test_layout_independence_and_duplicates(set_fanout):
    edges = [(i % 13, (i * 7) % 13) for i in range(60) if i % 13 != (i * 7) % 13]
    set_fanout(4)
    a = _run(edges)
    set_fanout(16)
    b = _run(list(reversed(edges)) + edges)  # dup edges too
    assert a == b == _brute(edges)


@pytest.mark.usefixtures("ray_session")
def test_convergence_check_runs_no_aggregate(monkeypatch):
    """The per-round convergence sum comes from the materialized label
    blocks: no execution runs Ray's global Aggregate, and the labels are
    the reference ones."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    names, execute = [], StreamingExecutor.execute

    def spy_execute(self, dag, *args, **kwargs):
        todo = [dag]
        while todo:
            op = todo.pop()
            names.append(op.name)
            todo.extend(op.input_dependencies)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy_execute)
    edges = [(1, 2), (2, 3), (10, 11)]
    assert _run(edges) == _brute(edges) == [
        (1, 1), (2, 1), (3, 1), (10, 10), (11, 10)]
    assert names and not [n for n in names if "Aggregate" in n]


@pytest.mark.usefixtures("ray_session")
def test_long_path_converges_logarithmically():
    n = 512
    edges = [(i, i + 1) for i in range(n - 1)]
    # doubling bound: labels reach the min in O(log n) rounds; 16 rounds
    # give slack over log2(512)=9 while a pure flood would need ~n
    got = _run(edges, max_rounds=16)
    assert got == [(i, 0) for i in range(n)]


@pytest.mark.usefixtures("ray_session")
def test_random_graph_against_reference():
    rng = random.Random(42)
    edges = [(rng.randrange(400), rng.randrange(400)) for _ in range(180)]
    edges = [(a, b) for a, b in edges if a != b]
    assert _run(edges) == _brute(edges)


def test_connected_components_empty_edges_typed(ray_session):
    """Zero edges -> zero rows with a TYPED (node, component) schema, so
    downstream joins don't crash on a schema-less empty dataset."""
    import pyarrow as pa
    import ray.data as rd

    from jsschema_ray.stages.graph import connected_components

    pairs = rd.from_arrow(pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
    }))
    out = connected_components(pairs)
    assert out.count() == 0
    sch = out.schema()
    assert sch.names == ["node", "component"]
