"""Campaign job server: request in, byte-identical JSONL streamed back."""

import asyncio
import json

import pytest

from repro.sim import CampaignRunner
from repro.sim.serve import CampaignServer, specs_from_request


async def _request(port: int, payload: dict):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()
    lines = []
    while True:
        line = await reader.readline()
        if not line:
            break
        lines.append(line.decode("utf-8"))
    writer.close()
    await writer.wait_closed()
    return lines


def test_specs_from_request_mirrors_cli_derivation():
    specs = specs_from_request({"attack": "guess", "count": 3, "seed": 9})
    assert [spec.label for spec in specs] == ["guess-0", "guess-1", "guess-2"]
    assert len({spec.seed for spec in specs}) == 3
    assert len({spec.attack_seed for spec in specs}) == 3


def test_specs_from_request_rejects_bad_input():
    with pytest.raises(ValueError):
        specs_from_request({"attack": "nonesuch"})
    with pytest.raises(ValueError):
        specs_from_request({"count": 0})


def test_served_campaign_streams_file_sink_bytes(tmp_path):
    request = {"app": "testapp", "attack": "guess", "count": 3, "seed": 5,
               "jobs": 2}

    async def scenario():
        server = CampaignServer(port=0, cache_dir=tmp_path / "cache")
        await server.start()
        try:
            return await _request(server.port, request)
        finally:
            server._server.close()
            await server._server.wait_closed()

    lines = asyncio.run(scenario())
    direct = CampaignRunner(jobs=1, jsonl_path=tmp_path / "direct.jsonl")
    direct.run(specs_from_request(request))
    expected = (tmp_path / "direct.jsonl").read_text().splitlines(keepends=True)
    assert lines == expected
    assert "campaign.aggregates" in lines[-2]
    assert "campaign.phases" in lines[-1]


def _served_lines(payload: dict):
    async def scenario():
        server = CampaignServer(port=0)
        await server.start()
        try:
            return await _request(server.port, payload)
        finally:
            server._server.close()
            await server._server.wait_closed()

    return asyncio.run(scenario())


def test_served_error_is_one_json_line():
    lines = _served_lines({"attack": "nonesuch"})
    assert len(lines) == 1
    assert "campaign.error" in json.loads(lines[0])


def test_unknown_request_key_is_rejected_not_dropped():
    """``swarm`` is a CLI-only flag: silently flying a single board would
    break the byte-identical-to-CLI promise."""
    with pytest.raises(ValueError, match="swarm"):
        specs_from_request({"attack": "flood", "swarm": 3})
    lines = _served_lines({"attack": "flood", "swarm": 3})
    assert len(lines) == 1
    assert "swarm" in json.loads(lines[0])["campaign.error"]


def test_mistyped_request_value_is_rejected_before_running():
    """A bad value must not run: every scenario would come back as an
    ``error`` record inside a success-shaped stream."""
    for bad in (
        {"timeout": "soon"},
        {"timeout": 0},
        {"count": "3"},
        {"count": True},
        {"jobs": False},
        {"seed": 1.5},
        {"app": 7},
        {"app": "nonesuch"},
        {"engine": "nonesuch"},
        {"toolchain": "nonesuch"},
    ):
        with pytest.raises(ValueError):
            specs_from_request(bad)
    lines = _served_lines({"attack": "guess", "timeout": "soon"})
    assert len(lines) == 1
    assert "timeout" in json.loads(lines[0])["campaign.error"]


def test_count_and_jobs_are_bounded():
    from repro.sim.serve import MAX_COUNT, MAX_JOBS

    assert len(specs_from_request({"count": 2, "jobs": MAX_JOBS})) == 2
    for bad in (
        {"count": 0},
        {"count": MAX_COUNT + 1},
        {"jobs": 0},
        {"jobs": MAX_JOBS + 1},
    ):
        with pytest.raises(ValueError, match="must be in"):
            specs_from_request(bad)
    lines = _served_lines({"count": MAX_COUNT + 1})
    assert len(lines) == 1
    assert "count" in json.loads(lines[0])["campaign.error"]
