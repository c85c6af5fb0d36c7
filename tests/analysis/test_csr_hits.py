"""Parity tests: CSR matvec link-analysis kernels vs dict reference.

The CSR kernels (:mod:`repro.perf.csr_hits`) replaced the dict-walking
HITS/Bharat-Henzinger loops inside the retraining path; they must agree
with those formulations (``tests/analysis/reference.py``) within 1e-9
per node on random graphs, including iteration counts and convergence
flags.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis
import repro.analysis.distillation
import repro.analysis.hits
from repro.analysis.distillation import bharat_henzinger
from repro.analysis.graph import LinkGraph
from repro.analysis.hits import hits
from repro.perf.csr_hits import CsrAdjacency, distillation_matrices

from tests.analysis.reference import (
    bharat_henzinger_csr_reference,
    csr_reference,
    bharat_henzinger_reference,
    hits_reference,
)


def random_graph(
    nodes: int, out_degree: int, seed: int, isolated: int = 0
) -> LinkGraph:
    rng = np.random.default_rng(seed)
    graph = LinkGraph()
    for node in range(nodes):
        graph.add_node(node, host=f"host{node % 17}.example")
    targets = rng.integers(0, nodes, size=(nodes, out_degree))
    for source in range(nodes):
        for target in targets[source]:
            graph.add_edge(source, int(target))
    for i in range(isolated):
        graph.add_node(f"island{i}")
    return graph


def assert_result_parity(kernel, reference, abs_tol: float = 1e-9) -> None:
    assert kernel.iterations == reference.iterations
    assert kernel.converged == reference.converged
    assert set(kernel.authority) == set(reference.authority)
    assert set(kernel.hub) == set(reference.hub)
    for node, score in reference.authority.items():
        assert kernel.authority[node] == pytest.approx(score, abs=abs_tol)
    for node, score in reference.hub.items():
        assert kernel.hub[node] == pytest.approx(score, abs=abs_tol)


class TestHitsParity:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_random_graphs(self, seed) -> None:
        graph = random_graph(nodes=250, out_degree=5, seed=seed, isolated=4)
        assert_result_parity(hits(graph), hits_reference(graph))

    def test_fixed_iteration_budget(self) -> None:
        graph = random_graph(nodes=120, out_degree=4, seed=7)
        kernel = hits(graph, max_iterations=3, tolerance=0.0)
        reference = hits_reference(graph, max_iterations=3, tolerance=0.0)
        assert kernel.iterations == reference.iterations == 3
        assert not kernel.converged
        assert_result_parity(kernel, reference)

    def test_empty_graph(self) -> None:
        assert hits(LinkGraph()).converged
        assert hits(LinkGraph()).authority == {}

    def test_edgeless_graph(self) -> None:
        graph = LinkGraph()
        for i in range(5):
            graph.add_node(i)
        assert_result_parity(hits(graph), hits_reference(graph))

    def test_non_integer_nodes(self) -> None:
        graph = LinkGraph()
        graph.add_edge("hub", "auth1")
        graph.add_edge("hub", "auth2")
        graph.add_edge(("tuple", "node"), "auth1")
        assert_result_parity(hits(graph), hits_reference(graph))


class TestBharatHenzingerParity:
    @pytest.mark.parametrize("seed", [5, 19, 101])
    def test_random_graphs_with_relevance(self, seed) -> None:
        graph = random_graph(nodes=200, out_degree=5, seed=seed, isolated=3)
        rng = np.random.default_rng(seed + 1)
        relevance = {
            node: float(rng.uniform(0.05, 1.0)) for node in graph.nodes
        }
        kernel = bharat_henzinger(graph, relevance=relevance)
        reference = bharat_henzinger_reference(graph, relevance=relevance)
        assert_result_parity(kernel, reference)

    def test_without_relevance_defaults_to_one(self) -> None:
        graph = random_graph(nodes=150, out_degree=4, seed=13)
        assert_result_parity(
            bharat_henzinger(graph), bharat_henzinger_reference(graph)
        )

    def test_ranking_agreement(self) -> None:
        graph = random_graph(nodes=300, out_degree=6, seed=23)
        kernel = bharat_henzinger(graph)
        reference = bharat_henzinger_reference(graph)
        assert [n for n, _ in kernel.top_authorities(10)] == [
            n for n, _ in reference.top_authorities(10)
        ]
        assert [n for n, _ in kernel.top_hubs(10)] == [
            n for n, _ in reference.top_hubs(10)
        ]


def entry(matrix, row: int, column: int) -> float:
    """``matrix[row, column]`` of CSR rows (0.0 where nothing is stored)."""
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    stored = matrix.data[lo:hi][matrix.indices[lo:hi] == column]
    return float(stored.sum())


class TestCsrAdjacency:
    def test_from_graph_shapes(self) -> None:
        graph = random_graph(nodes=40, out_degree=3, seed=2)
        adjacency = CsrAdjacency.from_graph(graph)
        assert adjacency.matrix.shape == (len(graph), len(graph))
        edges = [
            (source, target)
            for source, targets in graph.successors.items()
            for target in targets
        ]
        assert len(adjacency.matrix.data) == len(edges)
        for source, target in edges:
            row = adjacency.index[source]
            column = adjacency.index[target]
            assert entry(adjacency.matrix, row, column) == 1.0

    def test_weight_of_applies_per_edge(self) -> None:
        """Each edge's weights are its host counts times the relevance
        of its source (authority step) or target (hub step)."""
        graph = LinkGraph()
        for node, host in (("a", "x"), ("d", "x"), ("b", "y"), ("c", "y")):
            graph.add_node(node, host=host)
        graph.add_edge("a", "b")
        graph.add_edge("a", "c")
        graph.add_edge("d", "b")
        relevance = {"a": 0.5, "b": 2.0}
        authority, hub = distillation_matrices(graph, relevance)
        index = graph.node_index()
        # a and d share host x, both link b: each a->b / d->b counts 1/2
        assert entry(authority, index["a"], index["b"]) == 0.5 * 0.5
        assert entry(authority, index["d"], index["b"]) == 0.5 * 1.0
        assert entry(authority, index["a"], index["c"]) == 1.0 * 0.5
        # b and c share host y, both linked from a: 1/2 each
        assert entry(hub, index["a"], index["b"]) == 0.5 * 2.0
        assert entry(hub, index["a"], index["c"]) == 0.5 * 1.0
        assert entry(hub, index["d"], index["b"]) == 1.0 * 2.0


@st.composite
def host_graphs(draw):
    """Graphs with few hosts (so host counts collide), self-links among
    the edges (``add_edge`` drops them), nodes added in random order
    with and without a host, and a partial relevance map."""
    n = draw(st.integers(0, 14))
    order = draw(st.permutations(range(n)))
    graph = LinkGraph()
    for node in order:
        host = draw(st.one_of(st.none(), st.sampled_from("xyz")))
        graph.add_node(node, host=host)
    edges = draw(st.lists(
        st.tuples(st.integers(0, n + 2), st.integers(0, n + 2)),
        max_size=4 * n + 4,
    ))
    for source, target in edges:
        graph.add_edge(source, target)
    relevance = draw(st.dictionaries(
        st.integers(0, n + 2), st.floats(0.0, 1.0), max_size=n
    ))
    return graph, relevance


def assert_same_arrays(built, oracle) -> None:
    for name in ("data", "indices", "indptr"):
        ours, theirs = getattr(built, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name
        assert ours.tobytes() == theirs.tobytes(), name
    assert built.shape == oracle.shape


class TestArrayBuiltAdjacency:
    @given(host_graphs())
    @settings(max_examples=200, deadline=None)
    def test_csr_arrays_are_the_edge_by_edge_build(self, drawn) -> None:
        """Bit for bit: the unweighted adjacency, and both weighted
        adjacencies of the host and relevance rules."""
        graph, relevance = drawn
        assert_same_arrays(
            CsrAdjacency.from_graph(graph).matrix, csr_reference(graph)
        )
        authority, hub = distillation_matrices(graph, relevance)
        authority_oracle, hub_oracle = bharat_henzinger_csr_reference(
            graph, relevance
        )
        assert_same_arrays(authority, authority_oracle)
        assert_same_arrays(hub, hub_oracle)


class TestOraclesStayOutOfProduction:
    @pytest.mark.parametrize(
        "module, name",
        [
            (repro.analysis.hits, "hits_reference"),
            (repro.analysis.hits, "_normalize"),
            (repro.analysis.distillation, "bharat_henzinger_reference"),
            (repro.analysis, "hits_reference"),
            (repro.analysis, "bharat_henzinger_reference"),
            (repro.analysis.distillation, "_edge_weights"),
        ],
    )
    def test_dict_loops_are_gone_from_src(self, module, name) -> None:
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())
