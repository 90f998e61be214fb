"""Priced apply events against a golden fixture.

``apply_golden.py`` recorded the fixture; this test replays the same
seeded op streams and asserts every priced field of every
:class:`~repro.api.UpdateReport` equal, field by field, so an optimised
apply path can never shift an event count or a cache statistic.
"""

from __future__ import annotations

import json

import pytest

from apply_golden import FIXTURE, GOLDEN_CONFIGS, GOLDEN_IDS, record_config

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_config_and_evicts():
    assert sorted(GOLDEN) == sorted(GOLDEN_IDS)
    assert any(
        record["cache_stats"]["exchanges"] > 0
        for records in GOLDEN.values()
        for record in records
    )


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=GOLDEN_IDS)
def test_apply_reports_match_golden(config, tmp_path, request):
    expected = GOLDEN[request.node.callspec.id]
    replayed = record_config(config, tmp_path)
    assert len(replayed) == len(expected)
    for call, (got, want) in enumerate(zip(replayed, expected)):
        for name in want:
            assert got[name] == want[name], f"call {call}: {name}"
