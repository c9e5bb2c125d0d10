"""``repro serve``: the always-on campaign server.

A deliberately small HTTP/1.1 + JSON API over ``asyncio.start_server``
(stdlib only — no web framework), in front of the sharded dispatcher
in :mod:`repro.service.dispatch`:

====================================  =================================
``GET  /health``                      server + per-worker health
``GET  /campaigns``                   campaign list (id, state, progress)
``POST /campaigns``                   submit a spec; returns its id
``GET  /campaigns/<id>``              full status: aggregates, batches,
                                      worker health, quarantine counts
``GET  /campaigns/<id>/journal``      the campaign journal, streamed as
                                      chunked NDJSON; ``?follow=1``
                                      keeps streaming records live
                                      until the campaign ends
``GET  /campaigns/<id>/wait``         long-poll until terminal state
``POST /campaigns/<id>/cancel``       stop a campaign
``POST /shutdown``                    graceful drain + exit
====================================  =================================

Submission admits at most ``max_active`` campaigns at once (each owns
its own supervised worker pool); the rest queue FIFO.  ``SIGTERM`` and
``SIGINT`` trigger the same graceful drain as ``POST /shutdown``:
in-flight campaigns stop, their journals flush (including out-of-order
holdbacks, so finished work survives), and every campaign on disk
remains resumable with ``inject --resume``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.service.dispatch import (
    CampaignSpec,
    CampaignTask,
    FuzzSpec,
    FuzzTask,
    QUEUED,
    SpecError,
    TERMINAL_STATES,
    ExponentialBackoff,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8344
DEFAULT_JOURNAL_DIR = os.path.join("results", "service")

#: Cap on request bodies (module text dominates; 8 MiB is generous).
MAX_BODY_BYTES = 8 * 1024 * 1024


class CampaignServer:
    """The service: admission queue, campaign registry, HTTP front."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int = 2,
        journal_dir: str = DEFAULT_JOURNAL_DIR,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 3,
        backoff: Optional[ExponentialBackoff] = None,
        max_active: int = 2,
        chaos_kill_after: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.journal_dir = journal_dir
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.backoff = backoff or ExponentialBackoff()
        self.max_active = max(1, max_active)
        self.chaos_kill_after = chaos_kill_after

        self.campaigns: Dict[str, Union[CampaignTask, FuzzTask]] = {}
        self._counter = 0
        self._active: Dict[str, asyncio.Task] = {}
        self._admit = asyncio.Event()
        self._draining = False
        self._started_at = time.time()
        self._server: Optional[asyncio.base_events.Server] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._shutdown_event = asyncio.Event()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        os.makedirs(self.journal_dir, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        if self.port == 0:
            self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler = asyncio.create_task(self._schedule_loop())

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda s=signum: asyncio.ensure_future(
                        self.shutdown(reason=signal.Signals(s).name)
                    )
                )
            except (NotImplementedError, RuntimeError):
                pass

    async def serve_until_shutdown(self) -> None:
        await self._shutdown_event.wait()

    async def shutdown(self, reason: str = "requested") -> None:
        """Graceful drain: stop dispatch, flush journals, exit."""
        if self._draining:
            return
        self._draining = True
        for campaign in self.campaigns.values():
            if campaign.state not in TERMINAL_STATES:
                campaign.drain()
        if self._scheduler is not None:
            self._admit.set()
        # Wait (bounded) for active campaigns to acknowledge the drain:
        # their executors tear workers down and flush journals.
        if self._active:
            await asyncio.wait(
                list(self._active.values()), timeout=10.0
            )
        if self._scheduler is not None:
            self._scheduler.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._shutdown_event.set()

    async def _schedule_loop(self) -> None:
        """FIFO admission: start queued campaigns while slots allow."""
        while True:
            self._active = {
                cid: task for cid, task in self._active.items()
                if not task.done()
            }
            if not self._draining:
                for cid, campaign in self.campaigns.items():
                    if len(self._active) >= self.max_active:
                        break
                    if campaign.state == QUEUED and cid not in self._active:
                        self._active[cid] = asyncio.create_task(
                            campaign.run(), name=f"campaign-{cid}"
                        )
            self._admit.clear()
            try:
                await asyncio.wait_for(self._admit.wait(), timeout=0.2)
            except asyncio.TimeoutError:
                pass

    # -- submission ---------------------------------------------------

    def submit(self, body: Dict[str, Any]) -> Union[CampaignTask, FuzzTask]:
        if self._draining:
            raise SpecError("server is draining; not accepting campaigns")
        kind = body.get("kind", "sfi")
        # Skip ids whose default journal file already exists (left by a
        # previous server run in the same journal_dir) — appending a
        # fresh campaign onto an old journal would break byte-identity.
        while True:
            self._counter += 1
            campaign_id = f"c{self._counter:04d}"
            taken = (
                os.path.exists(
                    os.path.join(self.journal_dir, f"{campaign_id}.jsonl"))
                or os.path.exists(
                    os.path.join(self.journal_dir,
                                 f"{campaign_id}_fuzz.jsonl"))
            )
            if not taken:
                break
        if kind == "fuzz":
            spec = FuzzSpec.from_json(body)
            journal_path = spec.journal or os.path.join(
                self.journal_dir, f"{campaign_id}_fuzz.jsonl"
            )
            campaign: Union[CampaignTask, FuzzTask] = FuzzTask(
                campaign_id, spec, journal_path
            )
        elif kind == "sfi":
            spec_data = {k: v for k, v in body.items() if k != "kind"}
            spec = CampaignSpec.from_json(spec_data)
            journal_path = spec.journal or os.path.join(
                self.journal_dir, f"{campaign_id}.jsonl"
            )
            campaign = CampaignTask(
                campaign_id,
                spec,
                journal_path,
                workers=self.workers,
                heartbeat_timeout=self.heartbeat_timeout,
                max_retries=self.max_retries,
                backoff=self.backoff,
                chaos_kill_after=self.chaos_kill_after,
            )
        else:
            raise SpecError(f"unknown campaign kind {kind!r}")
        self.campaigns[campaign_id] = campaign
        self._admit.set()
        return campaign

    def health(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for campaign in self.campaigns.values():
            states[campaign.state] = states.get(campaign.state, 0) + 1
        active_workers = []
        for cid, campaign in self.campaigns.items():
            if isinstance(campaign, CampaignTask) and (
                campaign.state not in TERMINAL_STATES
            ):
                for worker in campaign.monitor.snapshot():
                    worker = dict(worker)
                    worker["campaign"] = cid
                    active_workers.append(worker)
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.time() - self._started_at, 1),
            "campaigns": states,
            "active": sorted(self._active),
            "workers": active_workers,
        }

    # -- HTTP ---------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._route(writer, method, path, query, body)
        except ConnectionError:
            pass
        except Exception as exc:  # noqa: BLE001 — one bad request
            try:
                await self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], Optional[Dict]]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        body: Optional[Dict] = None
        if length:
            raw = await reader.readexactly(length)
            body = json.loads(raw.decode("utf-8"))
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        return method.upper(), split.path, query, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 409: "Conflict",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[Dict],
    ) -> None:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["health"]:
            await self._respond(writer, 200, self.health())
            return
        if parts and parts[0] == "campaigns":
            if method == "POST" and len(parts) == 1:
                try:
                    campaign = self.submit(body or {})
                except SpecError as exc:
                    await self._respond(writer, 400, {"error": str(exc)})
                    return
                await self._respond(writer, 202, {
                    "id": campaign.campaign_id,
                    "kind": campaign.kind,
                    "state": campaign.state,
                    "journal": campaign.journal_path,
                })
                return
            if method == "GET" and len(parts) == 1:
                await self._respond(writer, 200, {
                    "campaigns": [
                        {
                            "id": c.campaign_id,
                            "kind": c.kind,
                            "state": c.state,
                            "trials_done": c.trials_done,
                            "trials_total": c.trials_total,
                        }
                        for c in self.campaigns.values()
                    ]
                })
                return
            if len(parts) >= 2:
                campaign = self.campaigns.get(parts[1])
                if campaign is None:
                    await self._respond(
                        writer, 404, {"error": f"no campaign {parts[1]!r}"}
                    )
                    return
                if method == "GET" and len(parts) == 2:
                    await self._respond(writer, 200, campaign.status())
                    return
                if method == "GET" and parts[2:] == ["wait"]:
                    timeout = float(query.get("timeout", "600"))
                    try:
                        await asyncio.wait_for(
                            campaign.done_event.wait(), timeout
                        )
                    except asyncio.TimeoutError:
                        pass
                    await self._respond(writer, 200, campaign.status())
                    return
                if method == "GET" and parts[2:] == ["journal"]:
                    await self._stream_journal(writer, campaign, query)
                    return
                if method == "POST" and parts[2:] == ["cancel"]:
                    campaign.cancel()
                    await self._respond(writer, 200, campaign.status())
                    return
        if method == "POST" and parts == ["shutdown"]:
            await self._respond(writer, 200, {"status": "draining"})
            asyncio.ensure_future(self.shutdown(reason="http"))
            return
        await self._respond(
            writer, 404, {"error": f"no route {method} {path}"}
        )

    async def _stream_journal(
        self,
        writer: asyncio.StreamWriter,
        campaign: Union[CampaignTask, FuzzTask],
        query: Dict[str, str],
    ) -> None:
        """Chunked NDJSON: journal bytes as written, optionally live.

        ``follow=1`` (default) keeps tailing the file until the
        campaign reaches a terminal state, so a client that connects at
        submission time sees every record the moment the hold-back
        journal releases it; ``follow=0`` dumps the current contents
        and closes.  The bytes are forwarded verbatim — what the client
        saves is exactly what ``inject --journal`` would have written.
        """
        follow = query.get("follow", "1") not in ("0", "false", "no")
        path = campaign.journal_path
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def send(data: bytes) -> None:
            if data:
                writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
                await writer.drain()

        offset = 0
        while True:
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    data = handle.read()
                if data:
                    # Hold back a torn tail: only forward whole lines so
                    # the client never sees a partially-flushed record.
                    cut = data.rfind(b"\n") + 1
                    if cut:
                        await send(data[:cut])
                        offset += cut
            if not follow or campaign.state in TERMINAL_STATES:
                # One final drain after the terminal state: the journal
                # is closed before the state flips, so this pass sees
                # the complete file.
                if os.path.exists(path):
                    with open(path, "rb") as handle:
                        handle.seek(offset)
                        data = handle.read()
                    cut = data.rfind(b"\n") + 1
                    if cut:
                        await send(data[:cut])
                        offset += cut
                break
            try:
                await asyncio.wait_for(campaign.done_event.wait(), 0.1)
            except asyncio.TimeoutError:
                pass
        writer.write(b"0\r\n\r\n")
        await writer.drain()


async def run_server(server: CampaignServer) -> None:
    """Start ``server``, wire signals, and block until it drains."""
    await server.start()
    server.install_signal_handlers()
    await server.serve_until_shutdown()
