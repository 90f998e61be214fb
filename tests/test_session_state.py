"""Stateful differential test of :class:`repro.api.TCIMSession`.

A ``hypothesis`` state machine drives one session through ``apply``
calls (net batches and ``record=True`` streams, several between reads,
with edges inside one diagonal slice, and whole-triangle inserts and
triangle-breaking deletes), reads (``count``, ``simulate``,
``slice_stats``, ``support``, ``truss``, ``truss(k)``, ``clustering``,
``pair_scores``, ``common_neighbors_many``, top-k ``common_neighbors``)
and snapshot round trips, under drawn configurations: 8- and 64-bit
slices, four coloring-shard arrays, four row-partitioned arrays, a
memmap store with a tiny spill threshold, the same store compiling its
count plans through 3-edge windows, an array small enough that delta
joins at a hub raise capacity errors, and one whose column cache evicts
while every run fits.

Every read is checked against oracles that share no state with the
session: :class:`~repro.core.dynamic.DynamicTriangleCounter` for the
count, :func:`~repro.analysis.truss.edge_support` for supports,
:func:`~repro.analysis.truss.truss_decomposition` and
:func:`~repro.analysis.truss.k_truss` for trussness,
:mod:`repro.analysis.metrics` for clustering, the oracle graph's
neighbour sets for common-neighbour scores and two-hop candidates, and
a fresh session opened on the same edges for the whole ``simulate()``
run result, ``slice_stats()`` and the count plan.  A read of a
maintained count sweeps (``full_sweep``) exactly where the event totals
cannot price it: on several arrays, or when the fresh run's column cache
evicts.  After every step the session's resident state must equal a
rebuild from its symmetric structure (``tests/residency_reference.py``),
with no patch-failure fallback fired.  A rolled-back apply must leave
the session exact without recompiling a plan it kept.  Applies between
reads patch the triangle list and the trussness, so the
patched paths run under every configuration's op streams.

Tier-1 runs 20 examples of 15 steps per configuration;
``--state-machine-budget N`` (``tests/conftest.py``) runs N times as
many examples.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.analysis import metrics
from repro.analysis.truss import edge_support, k_truss, truss_decomposition
from repro.api import open_session
from repro.core import plan as joinplan
from repro.core import residency
from repro.core.plan import build_join_plan
from repro.core.dynamic import DynamicTriangleCounter
from repro.errors import ArchitectureError, GraphError
from repro.graph.graph import Graph
from residency_reference import check_residency
from test_net_apply import _slot_keys

NUM_VERTICES = 40
HUB = NUM_VERTICES - 1

#: Stands in for the memmap config's ``storage_dir``.
TMP_STORE = "<tmp>"

CONFIGS = {
    "upper-bits8-plan": {"slice_bits": 8},
    "upper-bits64-plan": {"slice_bits": 64},
    "upper-bits8-memmap": {
        "slice_bits": 8, "storage_dir": TMP_STORE, "spill_threshold_bytes": 16,
    },
    # Plans compile through several edge windows (PLAN_CHUNK_EDGES), so
    # chunked plans are patched, snapshotted and hydrated.
    "upper-bits8-memmap-chunked": {
        "slice_bits": 8, "storage_dir": TMP_STORE, "spill_threshold_bytes": 16,
    },
    # Five 8-bit slices: the hub's symmetric row fills the whole array,
    # so a delta join at the hub raises while full upper runs fit.
    "upper-bits8-capacity": {"slice_bits": 8, "array_bytes": 5},
    # Sixteen 8-bit slices: a row holds at most five, so every run fits,
    # and the column cache of the rest evicts on dense examples
    # (test_evicting_config_evicts).
    "upper-bits8-evicting": {"slice_bits": 8, "array_bytes": 16},
    "coloring-arrays4-bits8": {"slice_bits": 8, "num_arrays": 4, "shard_by": "coloring"},
    "rows-arrays4-bits8": {"slice_bits": 8, "num_arrays": 4, "shard_by": "rows"},
}

#: ``residency._PLAN_CHUNK_EDGES`` per config, set for the machine's
#: lifetime: a memmap session compiles its count plan through edge
#: windows of this many edges (65,536 by default, far above these graphs).
PLAN_CHUNK_EDGES = {"upper-bits8-memmap-chunked": 3}

PAIRS = [(u, v) for u in range(NUM_VERTICES) for v in range(u + 1, NUM_VERTICES)]

vertex_pairs = st.lists(
    st.tuples(st.integers(0, NUM_VERTICES - 1), st.integers(0, NUM_VERTICES - 1)),
    min_size=1,
    max_size=8,
)

#: Probe lists ``parse_pairs`` rejects with a GraphError.
MALFORMED_PAIRS = (
    [(0, 1, 2)], [(0,)], [5], [(0, NUM_VERTICES)], [(-1, 0)],
    [("1", 2)], [(1.5, 2)], [(True, 2)],
)

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["+", "-"]),
        st.integers(0, NUM_VERTICES - 1),
        st.integers(0, NUM_VERTICES - 1),
    ),
    min_size=1,
    max_size=12,
)


def _plan_arrays(plan, sym) -> dict:
    """A plan's arrays with its positions read as the global keys of the
    slices in those slots of ``sym``: slots depend on the layout, the
    slices they hold do not."""
    if plan is None:
        return {}
    arrays = {
        name: _slot_keys(sym, getattr(plan, name)).tolist()
        for name in ("row_positions", "col_positions")
    }
    for name in ("trace_keys", "pair_counts"):
        arrays[name] = np.asarray(getattr(plan, name)).tolist()
    arrays["num_edges"] = plan.num_edges
    return arrays


class SessionMachine(RuleBasedStateMachine):
    #: The configuration under test, set per test.
    CONFIG: dict = {}
    #: Its plan-compile edge window, ``None`` for the default.
    CHUNK_EDGES: int | None = None

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="session-state-")
        self.session = None
        self.snapshots = 0
        self.compiles = 0
        self._original_build = joinplan.build_join_plan
        self._original_chunk = residency._PLAN_CHUNK_EDGES

        def counting_build(*args, **kwargs):
            self.compiles += 1
            return self._original_build(*args, **kwargs)

        joinplan.build_join_plan = counting_build
        if self.CHUNK_EDGES is not None:
            residency._PLAN_CHUNK_EDGES = self.CHUNK_EDGES

    def teardown(self) -> None:
        joinplan.build_join_plan = self._original_build
        residency._PLAN_CHUNK_EDGES = self._original_chunk
        if self.session is not None:
            self.session.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _config(self, config: dict) -> dict:
        if config.get("storage_dir") == TMP_STORE:
            return {**config, "storage_dir": f"{self.tmp}/store"}
        return dict(config)

    @initialize(base=st.sets(st.sampled_from(PAIRS), max_size=70))
    def open(self, base):
        self.config = self._config(self.CONFIG)
        edges = set(base)
        if self.config.get("array_bytes"):
            edges |= {(u, HUB) for u in range(0, HUB, 3)}
        graph = Graph(NUM_VERTICES, sorted(edges))
        self.oracle = DynamicTriangleCounter(NUM_VERTICES, graph)
        self.session = open_session(graph, **self.config)

    def _graph(self) -> Graph:
        return self.oracle.to_graph()

    def _apply(self, ops, record: bool) -> None:
        self.session.count()  # the apply path's bootstrap run, if any
        # The plan the apply keeps: none while no read folded the
        # previous call's batches, which the apply then drops.
        plan_before = (
            None if self.session._residency.pending else self.session._residency.plan
        )
        compiles = self.compiles
        fallbacks = dict(self.session.fallback_counts)
        try:
            self.session.apply(ops, record=record)
        except ArchitectureError as error:
            assert "row region" in str(error)
            self.oracle.apply_ops(error.applied_operations)
            # The failing batch rolled back: the session is exact, and
            # a plan it kept is patched, not recompiled.
            assert self.session.count() == self.oracle.triangles
            assert self.session.num_edges == self.oracle.num_edges
            plan = self.session.join_plan
            if plan_before is not None:
                assert plan is not None
            assert self.compiles == compiles
            assert dict(self.session.fallback_counts) == fallbacks
            return
        self.oracle.apply_ops(ops)

    @rule(ops=ops_strategy, record=st.booleans())
    def apply(self, ops, record):
        self._apply(ops, record)

    @rule(
        block=st.integers(0, NUM_VERTICES - 1),
        offsets=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=6
        ),
        insert=st.booleans(),
    )
    def apply_diagonal(self, block, offsets, insert):
        """Edges whose endpoints share one slice of the session's width."""
        bits = self.config["slice_bits"]
        base = (block // bits) * bits
        span = min(bits, NUM_VERTICES - base)
        ops = [
            ("+" if insert else "-", base + a % span, base + b % span)
            for a, b in offsets
        ]
        self._apply(ops, record=False)

    @rule(
        ends=st.lists(st.integers(0, HUB - 1), min_size=1, max_size=4),
        insert=st.booleans(),
    )
    def apply_at_hub(self, ends, insert):
        """Edges at the hub, whose delta joins overflow the small array."""
        self._apply([("+" if insert else "-", u, HUB) for u in ends], record=False)

    @rule(
        corners=st.lists(
            st.lists(st.integers(0, NUM_VERTICES - 1), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        ),
        insert=st.booleans(),
    )
    def apply_triangles(self, corners, insert):
        """Inserts of whole triangles, or deletes of an edge in a triangle
        at each first corner: the applies that move trussness, each after
        a ``truss()`` read, so that the apply patches it."""
        if insert:
            ops = [
                ("+", a, b) for u, v, w in corners if len({u, v, w}) == 3
                for a, b in ((u, v), (v, w), (u, w))
            ]
        else:
            graph = self._graph()
            neighbors = [set(graph.neighbors(u).tolist()) for u in range(NUM_VERTICES)]
            ops = []
            for u, *_ in corners:
                ends = [w for w in sorted(neighbors[u]) if neighbors[u] & neighbors[w]]
                if ends:
                    ops.append(("-", u, ends[0]))
        if ops:
            self.session.truss()
            self._apply(ops, record=False)
            assert self.session.truss() == truss_decomposition(self._graph())

    @rule()
    def count(self):
        assert self.session.count() == self.oracle.triangles

    @rule()
    def simulate_and_stats(self):
        fresh = open_session(self._graph(), **self.config)
        # A run of the maintained count, priced from the event totals
        # unless they cannot price it.
        priced = self.session._run is None and self.session._triangles is not None
        swept = self.session.fallback_counts["full_sweep"]
        try:
            want = fresh.simulate()
        except ArchitectureError as error:
            try:
                self.session.simulate()
            except ArchitectureError as got:
                assert str(got) == str(error)
            else:
                raise AssertionError("the fresh session raised, the session did not")
        else:
            got = self.session.simulate()
            # Every field: row region, column cache, slice statistics, shards.
            assert got.result == want.result
            assert got.to_mapping() == want.to_mapping()
            sweeps = self.config.get("num_arrays", 1) > 1 or want.cache_stats.exchanges > 0
            assert self.session.fallback_counts["full_sweep"] == swept + (priced and sweeps)
        assert self.session.slice_stats() == fresh.slice_stats()
        fresh.close()

    @rule()
    def plan_equals_rebuild(self):
        fresh = open_session(self._graph(), **self.config)
        try:
            want = fresh.run()
        except ArchitectureError:
            return
        assert self.session.run() == want
        # A run priced from the event totals may leave no plan resident:
        # the count run's inputs compile or patch it.  It must equal,
        # position for position, a compile over the session's own
        # windows, and slice for slice a fresh session's plan.
        windows, edges, plan = self.session._residency.count_inputs()
        own = build_join_plan(*windows, *edges)
        for name in ("row_positions", "col_positions", "trace_keys", "pair_counts"):
            assert np.array_equal(getattr(plan, name), getattr(own, name)), name
        assert _plan_arrays(plan, windows[0].sym) == _plan_arrays(
            fresh.join_plan, fresh._residency.structure()
        )
        fresh.close()

    @rule()
    def support(self):
        assert dict(self.session.support()) == edge_support(self._graph())

    @rule()
    def truss(self):
        assert self.session.truss() == truss_decomposition(self._graph())

    @rule(k=st.integers(2, 6))
    def truss_k(self, k):
        expected = k_truss(self._graph(), k).edge_array()
        assert np.array_equal(self.session.truss(k).edge_array(), expected)

    @rule(pairs=vertex_pairs)
    def pair_scores(self, pairs):
        graph = self._graph()
        neighbors = [set(graph.neighbors(u).tolist()) for u in range(NUM_VERTICES)]
        sources, destinations = (np.array(ends) for ends in zip(*pairs))
        try:
            scores = self.session.pair_scores(sources, destinations)
        except ArchitectureError as error:
            # A probe's rows must fit the array like a delta join's.
            assert "row region" in str(error) and "array_bytes" in self.config
            return
        assert scores.tolist() == [len(neighbors[u] & neighbors[v]) for u, v in pairs]

    @rule(
        pairs=vertex_pairs,
        self_pair=st.integers(0, NUM_VERTICES - 1),
        bad=st.sampled_from(MALFORMED_PAIRS),
    )
    def common_neighbors_many(self, pairs, self_pair, bad):
        """Random probes with repeats and a self-pair, then a list that
        ends in a malformed probe, which must change nothing."""
        graph = self._graph()
        neighbors = [set(graph.neighbors(u).tolist()) for u in range(NUM_VERTICES)]
        pairs = pairs + pairs[:2] + [(self_pair, self_pair)]
        try:
            scores = self.session.common_neighbors_many(pairs)
        except ArchitectureError as error:
            assert "row region" in str(error) and "array_bytes" in self.config
            return
        assert scores == [len(neighbors[u] & neighbors[v]) for u, v in pairs]
        generation = self.session.generation
        with pytest.raises(GraphError):
            self.session.common_neighbors_many(pairs + bad)
        assert self.session.generation == generation
        assert self.session.count() == self.oracle.triangles

    @rule(u=st.integers(0, NUM_VERTICES - 1), k=st.integers(1, 6))
    def common_neighbors_top_k(self, u, k):
        graph = self._graph()
        neighbors = [set(graph.neighbors(w).tolist()) for w in range(NUM_VERTICES)]
        candidates = set().union(*(neighbors[w] for w in neighbors[u])) - neighbors[u]
        scores = [(w, len(neighbors[u] & neighbors[w])) for w in candidates - {u}]
        try:
            top = self.session.common_neighbors(u, k=k)
        except ArchitectureError as error:
            assert "row region" in str(error) and "array_bytes" in self.config
            return
        assert top == sorted(scores, key=lambda item: (-item[1], item[0]))[:k]

    @rule()
    def clustering(self):
        graph = self._graph()
        report = self.session.clustering()
        np.testing.assert_allclose(report.local, metrics.local_clustering(graph))
        assert np.array_equal(
            report.triangles_per_vertex, metrics.triangles_per_vertex(graph)
        )
        assert report.transitivity == pytest.approx(metrics.transitivity(graph))
        assert report.wedges == metrics.wedge_count(graph)
        assert report.triangles == self.oracle.triangles

    @rule()
    def snapshot_and_reopen(self):
        self.snapshots += 1
        path = f"{self.tmp}/snap-{self.snapshots}"
        self.session.snapshot(path)
        self.session.close()
        self.session = open_session(snapshot=path)

    @invariant()
    def edge_count_and_membership(self):
        if self.session is None:
            return
        assert self.session.num_edges == self.oracle.num_edges
        for u, v in ((0, 1), (1, HUB), (3, 9)):
            assert self.session.has_edge(u, v) == self.oracle.has_edge(u, v)

    @invariant()
    def residency_equals_rebuild(self):
        if self.session is None:
            return
        check_residency(self.session)
        fallbacks = self.session.fallback_counts
        assert fallbacks["flush_patch_error"] == fallbacks["workload_patch_error"] == 0


@pytest.mark.parametrize("config_id", list(CONFIGS))
def test_session_matches_oracles(config_id, request):
    machine = type(f"SessionMachine[{config_id}]", (SessionMachine,), {
        "CONFIG": CONFIGS[config_id],
        "CHUNK_EDGES": PLAN_CHUNK_EDGES.get(config_id),
    })
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=20 * request.config.getoption("--state-machine-budget"),
            stateful_step_count=15,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


@pytest.mark.parametrize("config_id", list(CONFIGS))
def test_full_sweep_fires_only_where_totals_cannot_price(config_id, tmp_path):
    # The evicting config's column cache evicts on this dense example and
    # the multi-array configs price several arrays, so their reads of a
    # maintained count sweep; the rest price from the totals (the
    # capacity config's full runs do not fit, and raise either way).
    rng = np.random.default_rng(0)
    edges = {PAIRS[i] for i in rng.choice(len(PAIRS), 70, replace=False)}
    edges |= {(u, HUB) for u in range(0, HUB, 3)}
    config = dict(CONFIGS[config_id])
    if config.get("storage_dir") == TMP_STORE:
        config["storage_dir"] = str(tmp_path)
    session = open_session(Graph(NUM_VERTICES, sorted(edges)), **config)
    reads = 0
    for ops in ([("+", 1, 2)], [("-", *sorted(edges)[0])]):
        try:
            session.apply(ops)
            session.simulate()
            session.run()  # the same generation's run: no second read
        except ArchitectureError as error:
            assert "row region" in str(error) and config_id == "upper-bits8-capacity"
        else:
            reads += 1
    sweeps = config_id == "upper-bits8-evicting" or "num_arrays" in config
    assert session.fallback_counts["full_sweep"] == (reads if sweeps else 0)
    assert reads == (0 if config_id == "upper-bits8-capacity" else 2)
    session.close()


def test_evicting_config_evicts():
    # The evicting configuration's cache evicts on a dense example: 70
    # random base pairs plus the machine's hub edges.
    rng = np.random.default_rng(0)
    edges = {PAIRS[i] for i in rng.choice(len(PAIRS), 70, replace=False)}
    edges |= {(u, HUB) for u in range(0, HUB, 3)}
    session = open_session(
        Graph(NUM_VERTICES, sorted(edges)), **CONFIGS["upper-bits8-evicting"]
    )
    assert session.simulate().cache_stats.exchanges > 0
    session.close()
