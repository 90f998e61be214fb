"""Golden record of the priced events of seeded ``apply()`` streams.

Every :class:`~repro.api.UpdateReport` field the performance model
prices — ``events`` and ``cache_stats`` — must stay bit-identical when
the apply path is optimised, and so must the counts.  This module
replays seeded op streams on one graph under every configuration of
``test_workloads.CONFIGS`` plus single-array ``array_bytes=512``
configs whose delta joins evict, and records each report's
``triangles``, ``delta_triangles``, ``per_op_deltas``, ``events`` and
``cache_stats``.  ``test_apply_golden.py`` replays the same streams and
compares field by field against the checked-in fixture.

Regenerate the fixture (only when a priced quantity is *meant* to
change) with::

    PYTHONPATH=src python tests/apply_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import open_session
from repro.graph import generators
from test_workloads import CONFIG_IDS, CONFIGS, TMP_STORE

FIXTURE = Path(__file__).with_name("data") / "apply_golden.json"

#: ``test_workloads.CONFIGS`` plus one tiny single array per replacement
#: policy: 512 bytes hold 64 slices, so the 50-op delta joins evict.
GOLDEN_CONFIGS = [
    *CONFIGS,
    *(
        {"num_arrays": 1, "array_bytes": 512, "policy": policy}
        for policy in ("lru", "fifo", "random")
    ),
]
GOLDEN_IDS = [*CONFIG_IDS, "arrays1-512B-lru", "arrays1-512B-fifo", "arrays1-512B-random"]

#: ``(op count, record)`` of each ``apply()`` call, in order.
CALLS = [(50, False), (50, False), (8, True), (50, False), (8, True), (50, False)]
SEED = 19


def op_stream(graph, seed: int = SEED):
    """The seeded op lists of :data:`CALLS`: half inserts of random
    pairs, half deletes of edges present in the base graph."""
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    n = graph.num_vertices
    for size, record in CALLS:
        ops = []
        for _ in range(size):
            if rng.random() < 0.5:
                u, v = (int(x) for x in edges[rng.integers(edges.shape[0])])
                ops.append(("-", u, v))
            else:
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                ops.append(("+", u, v))
        yield ops, record


def golden_graph():
    return generators.barabasi_albert(400, 5, seed=SEED)


def record_config(config: dict, storage_dir) -> list[dict]:
    """Every report of the op stream under one config, as JSON mappings."""
    if config.get("storage_dir") == TMP_STORE:
        config = {**config, "storage_dir": str(storage_dir)}
    graph = golden_graph()
    records = []
    with open_session(graph, **config) as session:
        for ops, record in op_stream(graph):
            report = session.apply(ops, record=record)
            records.append(
                {
                    "triangles": report.triangles,
                    "delta_triangles": report.delta_triangles,
                    "per_op_deltas": report.per_op_deltas,
                    "events": dataclasses.asdict(report.events),
                    "cache_stats": dataclasses.asdict(report.cache_stats),
                }
            )
    return records


def main() -> int:
    golden = {}
    for config_id, config in zip(GOLDEN_IDS, GOLDEN_CONFIGS):
        with tempfile.TemporaryDirectory() as storage_dir:
            golden[config_id] = record_config(config, storage_dir)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    exchanges = sum(
        record["cache_stats"]["exchanges"]
        for records in golden.values()
        for record in records
    )
    print(f"wrote {FIXTURE} ({len(golden)} configs, {exchanges} exchanges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
