"""Tests of the flat-adjacency graph core and the parallel sweep runner.

The compact-graph solvers must agree with the original networkx implementations (kept in
:mod:`repro.localview.paths` as ``_*_nx`` privates) on random weighted topologies for both
metric families, and the multiprocessing sweep path must reproduce serial results exactly.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.experiments.ans_size import run_ans_size_experiment
from repro.experiments.config import smoke_config
from repro.experiments.overhead import run_overhead_experiment
from repro.experiments.runner import resolve_workers
from repro.localview import CompactGraph, LocalView, all_first_hops, best_values_from
from repro.localview.paths import (
    _all_first_hops_bottleneck_forest_nx,
    _all_first_hops_owner_dijkstra_nx,
    _best_values_from_nx,
    _first_hops_to_nx,
    enumerate_best_paths,
    path_value,
)
from repro.metrics import (
    BandwidthMetric,
    DelayMetric,
    LexicographicMetric,
    MetricKind,
)
from repro.topology import Network

METRICS = (BandwidthMetric(), DelayMetric())


def random_weighted_network(rng: random.Random) -> Network:
    """A small connected-ish random network with integer weights (ties are likely)."""
    node_count = rng.randint(3, 14)
    network = Network()
    for node in range(node_count):
        network.add_node(node, (float(node), 0.0))
    edges = {(left, left + 1) for left in range(node_count - 1)}
    for _ in range(rng.randint(0, 2 * node_count)):
        a, b = rng.randrange(node_count), rng.randrange(node_count)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for a, b in sorted(edges):
        network.add_link(
            a, b, bandwidth=float(rng.randint(1, 6)), delay=float(rng.randint(1, 6))
        )
    return network


class TestCompactGraphStructure:
    def test_layout_matches_graph_and_preextracts_weights(self):
        network = Network.from_links(
            {(0, 1): {"bandwidth": 5.0, "delay": 2.0}, (1, 2): {"bandwidth": 3.0, "delay": 4.0}}
        )
        metric = BandwidthMetric()
        cg = CompactGraph.from_networkx(network.graph, metric)
        assert set(cg.nodes) == {0, 1, 2}
        assert all(cg.nodes[cg.index[node]] == node for node in cg.nodes)
        assert cg.edge_count() == 2
        row = dict(cg.adj[cg.index[1]])
        assert row[cg.index[0]] == 5.0 and row[cg.index[2]] == 3.0

    def test_view_caches_one_compact_graph_per_metric(self):
        network = random_weighted_network(random.Random(7))
        view = LocalView.from_network(network, 0)
        bw = BandwidthMetric()
        assert view.compact_graph(bw) is view.compact_graph(BandwidthMetric())
        assert view.compact_graph(bw) is not view.compact_graph(DelayMetric())

    def test_missing_metric_attribute_raises_key_error(self):
        network = Network.from_links({(0, 1): {"bandwidth": 5.0}})
        with pytest.raises(KeyError):
            CompactGraph.from_networkx(network.graph, DelayMetric())

    def test_same_name_metrics_with_different_extraction_do_not_share_cache(self):
        network = random_weighted_network(random.Random(13))
        view = LocalView.from_network(network, 0)
        first = LexicographicMetric([DelayMetric(), BandwidthMetric()], name="lex")
        second = LexicographicMetric([BandwidthMetric(), DelayMetric()], name="lex")
        assert view.compact_graph(first) is not view.compact_graph(second)
        row = view.compact_graph(first).adj[0]
        swapped = view.compact_graph(second).adj[0]
        assert [w for _, w in row] == [(b, a) for _, (a, b) in swapped]

    def test_partially_attributed_graph_keeps_lazy_traversal_semantics(self):
        """Edges the search never reaches may lack the metric attribute (legacy behaviour)."""
        network = Network.from_links({(0, 1): {"delay": 1.0}})
        network.add_node(2)
        network.add_node(3)
        network.graph.add_edge(2, 3)  # disconnected component, no weights at all
        delay = DelayMetric()
        assert best_values_from(network.graph, 0, delay) == (
            _best_values_from_nx(network.graph, 0, delay)
        )
        with pytest.raises(KeyError):  # reachable bad edges must still raise
            best_values_from(network.graph, 2, delay)


class TestCompactSolversAgreeWithNetworkxReference:
    def test_fifty_random_topologies_both_metric_families(self):
        rng = random.Random(20260730)
        for round_index in range(50):
            network = random_weighted_network(rng)
            owner = rng.randrange(len(network))
            view = LocalView.from_network(network, owner)
            for metric in METRICS:
                fast = all_first_hops(view, metric, method="auto")
                reference = {
                    target: _first_hops_to_nx(view, target, metric)
                    for target in view.known_targets()
                }
                assert fast == reference, (round_index, owner, metric.name)

    def test_single_pass_methods_match_their_networkx_twins(self):
        rng = random.Random(99)
        for _ in range(10):
            network = random_weighted_network(rng)
            owner = rng.randrange(len(network))
            view = LocalView.from_network(network, owner)
            assert _all_first_hops_owner_dijkstra_nx(view, DelayMetric()) == all_first_hops(
                view, DelayMetric(), method="owner-dijkstra"
            )
            assert _all_first_hops_bottleneck_forest_nx(view, BandwidthMetric()) == all_first_hops(
                view, BandwidthMetric(), method="bottleneck-forest"
            )

    def test_best_values_from_matches_networkx_with_exclusions(self):
        rng = random.Random(5)
        for _ in range(20):
            network = random_weighted_network(rng)
            source = rng.randrange(len(network))
            excluded = (rng.randrange(len(network)),)
            for metric in METRICS:
                assert best_values_from(network.graph, source, metric, excluded) == (
                    _best_values_from_nx(network.graph, source, metric, excluded)
                )

    def test_degenerate_unvalidated_weights_keep_legacy_reachability(self):
        """Zero-weight concave links and infinite additive links bypass validate_link_value
        when set directly; the specialized solvers must report the same reachability as the
        legacy traversal for them."""
        zero_bw = Network.from_links(
            {(1, 2): {"bandwidth": 0.0, "delay": 1.0}, (2, 3): {"bandwidth": 5.0, "delay": 2.0}}
        )
        inf_delay = Network.from_links({(1, 2): {"delay": float("inf")}, (2, 3): {"delay": 1.0}})
        for network, metric in ((zero_bw, BandwidthMetric()), (inf_delay, DelayMetric())):
            assert best_values_from(network.graph, 1, metric) == (
                _best_values_from_nx(network.graph, 1, metric)
            )

    def test_generic_solver_handles_composite_metrics(self):
        """A lexicographic metric overrides the whole protocol, forcing the generic path."""
        network = random_weighted_network(random.Random(11))
        metric = LexicographicMetric([DelayMetric(), BandwidthMetric()])
        assert metric.kind is MetricKind.ADDITIVE
        fast = best_values_from(network.graph, 0, metric)
        assert fast == _best_values_from_nx(network.graph, 0, metric)

    def test_batched_views_equal_per_node_views(self):
        network = random_weighted_network(random.Random(3))
        batched = LocalView.all_from_network(network)
        assert sorted(batched) == network.nodes()
        for node, view in batched.items():
            single = LocalView.from_network(network, node)
            assert view.one_hop == single.one_hop
            assert view.two_hop == single.two_hop
            assert set(view.graph.edges) == set(single.graph.edges)
            for u, v in view.graph.edges:
                assert view.graph.edges[u, v] == single.graph.edges[u, v]


class TestEnumerationPruning:
    def test_all_optimal_paths_found_despite_pruning(self):
        """A diamond with tied optimal paths and one strictly worse detour."""
        network = Network.from_links(
            {
                (0, 1): {"delay": 1.0},
                (0, 2): {"delay": 1.0},
                (1, 3): {"delay": 1.0},
                (2, 3): {"delay": 1.0},
                (0, 3): {"delay": 5.0},
            }
        )
        paths = enumerate_best_paths(network.graph, 0, 3, DelayMetric())
        assert paths == [[0, 1, 3], [0, 2, 3]]
        for path in paths:
            assert path_value(network.graph, path, DelayMetric()) == 2.0


class TestParallelRunnerEquivalence:
    def test_ans_size_parallel_matches_serial_exactly(self):
        config = smoke_config("bandwidth").with_overrides(runs=2)
        serial = run_ans_size_experiment(config, BandwidthMetric(), workers=1)
        parallel = run_ans_size_experiment(config, BandwidthMetric(), workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_overhead_parallel_matches_serial_exactly(self):
        config = smoke_config("delay").with_overrides(runs=2)
        serial = run_overhead_experiment(config, DelayMetric(), workers=1)
        parallel = run_overhead_experiment(config, DelayMetric(), workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize(
        ("experiment_id", "metric"),
        [("fig8", BandwidthMetric()), ("fig9", DelayMetric())],
        ids=["fig8-bandwidth", "fig9-delay"],
    )
    def test_overhead_sweep_with_env_workers_is_byte_identical_to_serial(
        self, monkeypatch, experiment_id, metric
    ):
        """The fig-8/fig-9 sweeps through the REPRO_WORKERS=2 path must reproduce the
        serial bytes exactly now that the workers carry warm per-trial caches (compact
        graphs, bottleneck forests, incremental advertised topologies): every cache is
        per-worker and per-trial, so nothing warm leaks across run indices."""
        config = smoke_config(metric.name).with_overrides(runs=2)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = run_overhead_experiment(config, metric, experiment_id=experiment_id)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = run_overhead_experiment(config, metric, experiment_id=experiment_id)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_workers_resolve_from_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4
        assert resolve_workers(2) == 2  # explicit argument wins
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        with pytest.raises(ValueError):
            resolve_workers()
