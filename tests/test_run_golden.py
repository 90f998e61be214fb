"""Priced multi-array runs against a golden fixture.

``run_golden.py`` recorded the fixture; this test replays every
standalone configuration and every session stream and asserts each
recorded field equal, so the way shards are produced can never shift a
count, an event, a cache statistic, a shard field or a modelled figure.
"""

from __future__ import annotations

import json

import pytest

from run_golden import (
    FIXTURE,
    GRAPHS,
    SESSION_CONFIGS,
    STANDALONE,
    record_session,
    record_standalone,
)

GOLDEN = json.loads(FIXTURE.read_text())

STANDALONE_IDS = [
    f"{graph_name}-{config_id}" for graph_name in GRAPHS for config_id in STANDALONE
]


def _assert_record(got: dict, want: dict, where: str) -> None:
    got = json.loads(json.dumps(got))  # tuples compare as the JSON lists
    assert sorted(got) == sorted(want), where
    for name in want:
        assert got[name] == want[name], f"{where}: {name}"


def test_fixture_covers_every_config_evicts_and_raises():
    assert sorted(GOLDEN["standalone"]) == sorted(STANDALONE_IDS)
    assert sorted(GOLDEN["session"]) == sorted(SESSION_CONFIGS)
    standalone = GOLDEN["standalone"].values()
    assert any(
        record["cache_stats"]["exchanges"] > 0
        for record in standalone
        if "error" not in record
    )
    assert any("error" in record for record in standalone)


@pytest.mark.parametrize(
    "graph_name, config_id",
    [(graph_name, config_id) for graph_name in GRAPHS for config_id in STANDALONE],
    ids=STANDALONE_IDS,
)
def test_standalone_run_matches_golden(graph_name, config_id):
    key = f"{graph_name}-{config_id}"
    got = record_standalone(graph_name, STANDALONE[config_id])
    _assert_record(got, GOLDEN["standalone"][key], key)


@pytest.mark.parametrize("config_id", list(SESSION_CONFIGS))
def test_session_simulations_match_golden(config_id):
    expected = GOLDEN["session"][config_id]
    replayed = record_session(SESSION_CONFIGS[config_id])
    assert len(replayed) == len(expected)
    for call, (got, want) in enumerate(zip(replayed, expected)):
        _assert_record(got, want, f"{config_id} after call {call}")
