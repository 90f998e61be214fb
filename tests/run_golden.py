"""Golden record of priced runs and slice statistics.

Every field a run reports — the merged ``events`` and ``cache_stats``,
the row region and column cache, the coloring ``notes``, each
:class:`~repro.core.sharding.ShardResult` field, the Table III/IV
``slice_stats``, and the latency and energy
:func:`~repro.arch.pipeline.measured_shard_report` prices from them —
must stay bit-identical however the slices, plans and shards are
produced.  This module records them for standalone
:meth:`~repro.core.accelerator.TCIMAccelerator.run` configurations on a
Barabási–Albert and a Holme–Kim graph: multi-array runs (the
upper × lower count join and the symmetric structure joined with itself,
every partitioner, 4 / 16 arrays plus 32 for coloring, with a count plan
passed in (``-plan``) or compiled by the run (``-noplan``), evicting
arrays under every replacement policy, a non-64-bit slice width and a
capacity error recorded with its message) and single-array runs (both
joins, the same two plan sources, 8-, 64- and 128-bit slices, evicting
arrays under every replacement policy).  It also records sessions that call
``slice_stats()`` and ``simulate()`` after every call of the seeded
``apply()`` streams of ``apply_golden.py``, on every
``test_workloads.CONFIGS`` entry and a 16-array coloring session.
``test_run_golden.py`` replays them and compares field by field against
the checked-in fixture.

Regenerate the fixture (only when a priced quantity is *meant* to
change) with::

    PYTHONPATH=src python tests/run_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from repro import open_session
from repro.arch.perf import default_pim_model
from repro.arch.pipeline import measured_shard_report
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import generators

from apply_golden import golden_graph, op_stream
from test_workloads import CONFIG_IDS, CONFIGS, TMP_STORE

FIXTURE = Path(__file__).with_name("data") / "run_golden.json"

GRAPHS = {
    "ba": lambda: generators.barabasi_albert(500, 6, seed=7),
    "hk": lambda: generators.powerlaw_cluster(400, 5, 0.6, seed=11),
}


def _standalone_configs() -> dict[str, dict]:
    """Config fields per record id, plus two record flags the harness
    pops before building the config: ``layout`` (``"upper"``, the
    default, or ``"symmetric"``, see :func:`record_standalone`) and
    ``use_plan`` (default true: pass a compiled count plan into the
    run)."""
    configs: dict[str, dict] = {}
    for layout in ("upper", "symmetric"):
        for shard_by in ("edges", "rows", "degree", "coloring"):
            widths = (4, 16, 32) if shard_by == "coloring" else (4, 16)
            for num_arrays in widths:
                for use_plan in (True, False):
                    key = (
                        f"{layout}-{shard_by}-{num_arrays}-"
                        f"{'plan' if use_plan else 'noplan'}"
                    )
                    configs[key] = {
                        "layout": layout,
                        "shard_by": shard_by,
                        "num_arrays": num_arrays,
                        "use_plan": use_plan,
                    }
    # 4 kB hold 512 slices: 128 per position shard and per coloring
    # shard at four arrays, enough for any row region here, small enough
    # that every shard's column cache evicts.
    for policy in ("lru", "fifo", "random"):
        for shard_by in ("degree", "coloring"):
            for layout in ("upper", "symmetric"):
                configs[f"{layout}-{shard_by}-4-evict-{policy}"] = {
                    "layout": layout,
                    "shard_by": shard_by,
                    "num_arrays": 4,
                    "array_bytes": 4096,
                    "policy": policy,
                }
    for shard_by in ("edges", "coloring"):
        configs[f"upper-{shard_by}-16-bits128"] = {
            "shard_by": shard_by,
            "num_arrays": 16,
            "slice_bits": 128,
        }
        configs[f"upper-{shard_by}-4-bits32-evict"] = {
            "shard_by": shard_by,
            "num_arrays": 4,
            "slice_bits": 32,
            "array_bytes": 2048,
            "policy": "lru",
        }
    # 16 arrays of 4 slices each: no row region fits.
    for shard_by in ("rows", "coloring"):
        configs[f"upper-{shard_by}-16-too-small"] = {
            "shard_by": shard_by,
            "num_arrays": 16,
            "array_bytes": 512,
        }
    # One array, the path every single-array simulate() prices.
    for layout in ("upper", "symmetric"):
        for slice_bits in (8, 64, 128):
            for use_plan in (True, False):
                key = (
                    f"{layout}-single-bits{slice_bits}-"
                    f"{'plan' if use_plan else 'noplan'}"
                )
                configs[key] = {
                    "layout": layout,
                    "slice_bits": slice_bits,
                    "use_plan": use_plan,
                }
        # 512 bytes hold 64 slices: every row region fits, the column
        # cache evicts.
        for policy in ("lru", "fifo", "random"):
            for use_plan in (True, False):
                key = (
                    f"{layout}-single-evict-{policy}-"
                    f"{'plan' if use_plan else 'noplan'}"
                )
                configs[key] = {
                    "layout": layout,
                    "array_bytes": 512,
                    "policy": policy,
                    "use_plan": use_plan,
                }
    return configs


STANDALONE = _standalone_configs()

#: Every ``test_workloads.CONFIGS`` entry, plus a 16-array coloring
#: session.
SESSION_CONFIGS = {
    **dict(zip(CONFIG_IDS, CONFIGS)),
    "coloring-arrays16": {"num_arrays": 16, "shard_by": "coloring"},
}


def run_record(result) -> dict:
    """The priced fields of one run, as a JSON mapping."""
    perf = measured_shard_report(result, default_pim_model())
    return {
        "triangles": result.triangles,
        "events": dataclasses.asdict(result.events),
        "cache_stats": dataclasses.asdict(result.cache_stats),
        "row_region_slices": result.row_region_slices,
        "column_cache_slices": result.column_cache_slices,
        "notes": dict(result.notes),
        # Each ShardResult as its field values, nested dataclasses too.
        "shards": [list(dataclasses.astuple(shard)) for shard in result.shards],
        "slice_stats": dataclasses.asdict(result.slice_stats),
        "latency_s": perf.latency_s,
        "array_energy_j": perf.array_energy_j,
        "system_energy_j": perf.system_energy_j,
    }


def record_standalone(graph_name: str, config: dict) -> dict:
    """One standalone run.

    ``upper`` records join the upper and lower structures: ``-plan``
    ones pass plain upper and lower structures with a count plan
    compiled over them, ``-noplan`` ones let the run build its windows
    and a transient plan.  ``symmetric`` records pass the symmetric
    structure as both sides and the edge list in both directions, with
    (``-plan``) or without (``-noplan``) a compiled plan; that join finds
    each triangle six times, so the record divides its count by six.
    """
    graph = GRAPHS[graph_name]()
    fields = dict(config)
    layout = fields.pop("layout", "upper")
    use_plan = fields.pop("use_plan", True)
    accel_config = AcceleratorConfig(**fields)
    accelerator = TCIMAccelerator(accel_config)
    bits = accel_config.slice_bits
    try:
        if layout == "upper" and not use_plan:
            result = accelerator.run(graph)
        else:
            if layout == "symmetric":
                row_sliced = col_sliced = SlicedMatrix.from_graph(
                    graph, "symmetric", slice_bits=bits
                )
            else:
                row_sliced = SlicedMatrix.from_graph(graph, "upper", slice_bits=bits)
                col_sliced = SlicedMatrix.from_graph(graph, "lower", slice_bits=bits)
            edge_arrays = oriented_edges(graph, layout)
            result = accelerator.run(
                graph,
                row_sliced=row_sliced,
                col_sliced=col_sliced,
                edge_arrays=edge_arrays,
                join_plan=(
                    build_join_plan(row_sliced, col_sliced, *edge_arrays)
                    if use_plan
                    else None
                ),
            )
    except ArchitectureError as error:
        return {"error": str(error)}
    if layout == "symmetric":
        result.triangles //= 6
    return run_record(result)


def session_record(session) -> dict:
    """``slice_stats()`` read before ``simulate()``, then the priced run."""
    stats = dataclasses.asdict(session.slice_stats())
    return {**run_record(session.simulate().result), "session_slice_stats": stats}


def record_session(config: dict) -> list[dict]:
    """Records before and after every call of the seeded stream."""
    graph = golden_graph()
    with tempfile.TemporaryDirectory() as storage_dir:
        if config.get("storage_dir") == TMP_STORE:
            config = {**config, "storage_dir": storage_dir}
        with open_session(graph, **config) as session:
            records = [session_record(session)]
            for ops, record in op_stream(graph):
                session.apply(ops, record=record)
                records.append(session_record(session))
    return records


def main() -> int:
    golden = {
        "standalone": {
            f"{graph_name}-{config_id}": record_standalone(graph_name, config)
            for graph_name in GRAPHS
            for config_id, config in STANDALONE.items()
        },
        "session": {
            config_id: record_session(config)
            for config_id, config in SESSION_CONFIGS.items()
        },
    }
    # One record per line keeps the fixture small and diffable.
    sections = []
    for section, records in sorted(golden.items()):
        lines = [
            f"  {json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
            for key, record in sorted(records.items())
        ]
        sections.append(f" {json.dumps(section)}: {{\n" + ",\n".join(lines) + "\n }")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    standalone = golden["standalone"].values()
    exchanges = sum(
        record["cache_stats"]["exchanges"] for record in standalone if "error" not in record
    )
    errors = sum("error" in record for record in standalone)
    print(
        f"wrote {FIXTURE} ({len(golden['standalone'])} runs, "
        f"{len(golden['session'])} sessions, {exchanges} exchanges, "
        f"{errors} capacity errors)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
