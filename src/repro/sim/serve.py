"""Stdlib-only campaign job server: specs in, JSONL results out.

``repro campaign serve`` listens on a TCP port for newline-delimited
JSON requests, runs each as a campaign through the ordinary
:class:`~repro.sim.campaign.CampaignRunner`, and streams the results
back as the same JSONL the file sink writes — one deterministic record
per scenario as it lands, then the ``campaign.aggregates`` and
``campaign.phases`` trailer lines.  One request per connection.

A request mirrors the ``repro campaign`` flags (all fields optional)::

    {"app": "testapp", "attack": "guess", "count": 10, "seed": 0,
     "defense": "mavr", "toolchain": "mavr", "engine": "predecoded",
     "jobs": 2, "timeout": null}

Anything else — an unknown key (``swarm`` is a CLI-only flag), a value
of the wrong JSON type, a bool where a number belongs, an unknown name,
or ``count``/``jobs`` outside their bounds — is answered with one
``campaign.error`` line and runs nothing.

The server holds a single :class:`~repro.sim.artifacts.ArtifactCache`
root for its lifetime, so every request after the first one that shares
a board configuration takes the warm path — the "heavy traffic" shape
the fleet-scale story needs.  Campaigns run one at a time (the pool
already owns the parallelism); requests queue on the accept loop.

The protocol stays deliberately tiny: no auth, no TLS, no framing
beyond newlines.  It binds loopback by default and exists for local
fleet drivers and tests, not the open internet.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import List, Optional

from ..avr.engine import DEFAULT_ENGINE, ENGINES
from ..firmware import manifest_by_name
from ..telemetry import jsonable
from .campaign import CampaignRunner, deterministic_phases
from .scenario import ATTACK_VARIANTS, ScenarioSpec, derive_seed


#: upper bounds on the request's fan-out (a server guards its host)
MAX_COUNT = 10_000
MAX_JOBS = 64

#: every request key -> (accepted JSON types, may it be null)
_REQUEST_FIELDS = {
    "app": (str, False),
    "toolchain": (str, False),
    "defense": (str, False),
    "engine": (str, False),
    "attack": (str, True),
    "count": (int, False),
    "seed": (int, False),
    "jobs": (int, False),
    "timeout": ((int, float), True),
}


def _validate_request(request) -> None:
    """Reject anything ``repro campaign`` itself would not accept.

    Raises ``ValueError`` naming the first offending key.
    """
    if not isinstance(request, dict):
        raise ValueError("a request must be a JSON object")
    unknown = sorted(set(request) - set(_REQUEST_FIELDS))
    if unknown:
        raise ValueError(f"unknown request key(s): {', '.join(unknown)}")
    for key, value in request.items():
        types, nullable = _REQUEST_FIELDS[key]
        if value is None and nullable:
            continue
        # bool is an int subclass in Python, but never a count or a seed
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{key} has the wrong type: {value!r}")
    for key, limit in (("count", MAX_COUNT), ("jobs", MAX_JOBS)):
        if key in request and not 1 <= request[key] <= limit:
            raise ValueError(f"{key} must be in 1..{limit}, got {request[key]}")
    timeout = request.get("timeout")
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be a positive number, got {timeout!r}")
    if "app" in request:
        try:
            manifest_by_name(request["app"])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    if request.get("toolchain", "mavr") not in ("stock", "mavr"):
        raise ValueError(f"unknown toolchain: {request['toolchain']!r}")
    if request.get("engine", DEFAULT_ENGINE) not in ENGINES:
        raise ValueError(f"unknown engine: {request['engine']!r}")


def specs_from_request(request: dict) -> List[ScenarioSpec]:
    """Build the spec list for one request, mirroring ``repro campaign``.

    Seeds derive exactly as the CLI derives them, so a served campaign's
    records are byte-identical to ``repro campaign --jsonl`` with the
    same parameters.
    """
    _validate_request(request)
    attack = request.get("attack", "guess")
    if attack is not None and attack not in ATTACK_VARIANTS:
        raise ValueError(f"unknown attack variant: {attack!r}")
    seed = request.get("seed", 0)
    count = request.get("count", 1)
    return [
        ScenarioSpec(
            app=request.get("app", "testapp"),
            toolchain=request.get("toolchain", "mavr"),
            defense=request.get("defense", "mavr"),
            engine=request.get("engine", DEFAULT_ENGINE),
            seed=derive_seed(seed, index, "board"),
            attack=attack,
            attack_seed=derive_seed(seed, index, "attack"),
            label=f"{attack}-{index}",
        )
        for index in range(count)
    ]


class CampaignServer:
    """Accept campaign requests and stream their JSONL back."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        default_jobs: int = 1,
        cache_dir=None,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.default_jobs = default_jobs
        self.cache_dir = cache_dir
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (useful after binding port 0 in tests)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self.handle_client, self.host, self._requested_port
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            line = await reader.readline()
            if not line.strip():
                return
            try:
                request = json.loads(line)
                specs = specs_from_request(request)
            except (ValueError, TypeError, KeyError) as exc:
                writer.write(self._line({"campaign.error": str(exc)}))
                await writer.drain()
                return

            # the runner blocks in a pool; keep the accept loop breathing
            # by running it on a thread, with results crossing back via a
            # queue so each record streams out the moment it lands
            queue: asyncio.Queue = asyncio.Queue()

            def result_sink(index: int, result) -> None:
                loop.call_soon_threadsafe(
                    queue.put_nowait, (index, result.to_record())
                )

            runner = CampaignRunner(
                jobs=request.get("jobs", self.default_jobs),
                timeout_s=request.get("timeout"),
                cache_dir=self.cache_dir,
                result_sink=result_sink,
            )
            task = loop.run_in_executor(None, runner.run, specs)
            # results land in completion order; hold back until their
            # index is next so the stream matches the file sink byte for
            # byte at any jobs level
            buffered: dict = {}
            next_index = 0
            while next_index < len(specs):
                index, record = await queue.get()
                buffered[index] = record
                while next_index in buffered:
                    writer.write(self._line(buffered.pop(next_index)))
                    next_index += 1
                await writer.drain()
            report = await task
            writer.write(
                self._line({"campaign.aggregates": jsonable(report.aggregates)})
            )
            writer.write(
                self._line({
                    "campaign.phases": jsonable(
                        deterministic_phases(report.phases)
                    )
                })
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; nothing to clean up
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _line(payload: dict) -> bytes:
        return (
            json.dumps(payload, separators=(",", ":")) + "\n"
        ).encode("utf-8")
