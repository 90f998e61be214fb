"""CI smoke: the out-of-core storage tier is exact, warm, and actually spills.

Three gates over the acceptance-scale graph (20k-vertex / ~160k-edge
Barabási–Albert, whose symmetric slice structure and count plan total
~8.4 MB — well over 4x the 1 MiB spill threshold used here):

* **exactness** — a session whose slice payloads and compiled plans live
  in disk-backed memmaps answers ``count``/``support``/
  ``common_neighbors`` bit-identically to the all-RAM session, with the
  join plan on and off and across a 4-array sharded config;
* **warm paging** — hydrating a session from its snapshot
  (``open_session(snapshot=...)``) is at least ``MIN_HYDRATE_SPEEDUP``
  (5x) faster than re-establishing the same residency cold (slice the
  symmetric structure, derive its row and column windows, and compile
  the count plan);
* **memory** — with a 1 MiB spill threshold the memmap session actually
  sheds heap: its anonymous-RSS growth (measured in a subprocess, so
  this process's allocator noise cannot contaminate it) stays under the
  RAM session's minus half the spilled payload, and the spilled payload
  itself is at least 4x the threshold.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python benchmarks/smoke_oocore.py [min_hydrate_speedup]
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import open_session
from repro.graph import generators
from repro.storage.snapshot import snapshot_nbytes

RESULTS_DIR = Path(__file__).parent / "results"

NUM_VERTICES = 20_000
ATTACH = 8
SPILL_THRESHOLD = 2**20  # 1 MiB
MIN_HYDRATE_SPEEDUP = 5.0
REPEATS = 3

_CHILD_SCRIPT = r"""
import json, sys
from repro.api import open_session
from repro.graph import generators

def anon_kb():
    for line in open("/proc/self/status"):
        if line.startswith("RssAnon"):
            return int(line.split()[1])

kind, store_dir, threshold = sys.argv[1], sys.argv[2], int(sys.argv[3])
graph = generators.barabasi_albert(20_000, 8, seed=0)
before = anon_kb()
kw = {}
if kind == "memmap":
    kw = dict(storage_dir=store_dir, spill_threshold_bytes=threshold)
session = open_session(graph, **kw)
session.count()
session.support()
after = anon_kb()
detail = session.resident_bytes_detail()
print(json.dumps({"anon_delta_kb": after - before, "detail": detail}))
"""


def build_residency(session) -> None:
    """Force the structure, its windows and the plan resident, no engine
    query."""
    with session._lock:
        session._prepare()
        session._ensure_join_plan()


def measure_child(kind: str, store_dir: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, kind, store_dir, str(SPILL_THRESHOLD)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    if result.returncode != 0:
        raise RuntimeError(f"{kind} child failed:\n{result.stderr}")
    return json.loads(result.stdout)


def main(argv: list[str]) -> int:
    min_speedup = float(argv[1]) if len(argv) > 1 else MIN_HYDRATE_SPEEDUP
    failures = 0
    graph = generators.barabasi_albert(NUM_VERTICES, ATTACH, seed=0)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")

    with tempfile.TemporaryDirectory(prefix="oocore-smoke-") as tmp:
        tmp_path = Path(tmp)

        # --- gate 1: memmap sessions are bit-identical to RAM ----------
        ram = open_session(graph)
        expected = {
            "count": ram.count(),
            "support": ram.support(),
            "cn": ram.common_neighbors(0, k=8),
        }
        configs = [
            {"use_plan": True},
            {"use_plan": False},
            {"num_arrays": 4, "shard_by": "degree"},
        ]
        for extra in configs:
            disk = open_session(
                graph,
                storage_dir=str(tmp_path / "spill"),
                spill_threshold_bytes=SPILL_THRESHOLD,
                **extra,
            )
            ok = (
                disk.count() == expected["count"]
                and disk.support() == expected["support"]
                and disk.common_neighbors(0, k=8) == expected["cn"]
            )
            spilled = disk.resident_bytes_detail()["spilled"]
            label = ",".join(f"{k}={v}" for k, v in extra.items())
            if not ok:
                print(f"FAIL: memmap session diverges under {label}", file=sys.stderr)
                failures += 1
            else:
                print(f"memmap [{label}]: bit-identical, {spilled / 1e6:.1f} MB spilled")
            disk.close()

        # --- gate 2: warm hydrate vs cold re-slice + recompile ---------
        snap_dir = tmp_path / "snap"
        ram.snapshot(snap_dir)  # also a page-cache warm-up for the reads
        snapshot_mb = snapshot_nbytes(snap_dir) / 1e6
        cold_s = float("inf")
        for _ in range(REPEATS):
            cold = open_session(graph)
            start = time.perf_counter()
            build_residency(cold)
            cold_s = min(cold_s, time.perf_counter() - start)
            cold.close()
        warm_s = float("inf")
        warm_count = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            warm = open_session(snapshot=snap_dir)
            warm_s = min(warm_s, time.perf_counter() - start)
            assert warm._join_plan is not None
            warm_count = warm.count()
            warm.close()
        speedup = cold_s / warm_s if warm_s else float("inf")
        print(
            f"cold residency: {cold_s * 1e3:8.1f} ms   "
            f"warm hydrate: {warm_s * 1e3:8.1f} ms   "
            f"speedup {speedup:.1f}x (threshold {min_speedup:.1f}x), "
            f"snapshot {snapshot_mb:.2f} MB"
        )
        if warm_count != expected["count"]:
            print("FAIL: hydrated session count diverges", file=sys.stderr)
            failures += 1
        if speedup < min_speedup:
            print("FAIL: hydration below the speedup threshold", file=sys.stderr)
            failures += 1

        # --- gate 3: the memmap session actually sheds heap ------------
        ram_child = measure_child("ram", str(tmp_path / "rss-store"))
        mm_child = measure_child("memmap", str(tmp_path / "rss-store"))
        spilled = mm_child["detail"]["spilled"]
        ram_anon = ram_child["anon_delta_kb"] * 1024
        mm_anon = mm_child["anon_delta_kb"] * 1024
        budget = ram_anon - spilled // 2
        print(
            f"anon RSS growth: ram {ram_anon / 1e6:.1f} MB, "
            f"memmap {mm_anon / 1e6:.1f} MB "
            f"(budget {budget / 1e6:.1f} MB, spilled {spilled / 1e6:.1f} MB)"
        )
        if spilled < 4 * SPILL_THRESHOLD:
            print(
                f"FAIL: spilled {spilled} B < 4x threshold "
                f"({4 * SPILL_THRESHOLD} B)",
                file=sys.stderr,
            )
            failures += 1
        if mm_anon > budget:
            print(
                "FAIL: memmap session's heap growth exceeds the budget "
                "(spilled arrays still on the heap?)",
                file=sys.stderr,
            )
            failures += 1

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "smoke_oocore.txt").write_text(
        (
            f"oocore smoke: BA n={graph.num_vertices:,} m={graph.num_edges:,}\n"
            f"cold residency {cold_s * 1e3:.1f} ms vs warm hydrate "
            f"{warm_s * 1e3:.1f} ms -> {speedup:.1f}x (threshold {min_speedup}x); "
            f"snapshot {snapshot_mb:.2f} MB\n"
            f"anon RSS growth ram {ram_anon / 1e6:.1f} MB vs memmap "
            f"{mm_anon / 1e6:.1f} MB; spilled {spilled / 1e6:.1f} MB "
            f"(threshold {SPILL_THRESHOLD} B)\n"
        ),
        encoding="utf-8",
    )
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("oocore smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
