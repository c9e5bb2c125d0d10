"""Stdlib client for the campaign server (``http.client`` only).

Used by the ``repro submit``/``repro status`` CLI verbs, by
``experiments/harness.py`` when ``ENCORE_SFI_SERVER`` routes campaigns
to a running server, and by the tests/benchmarks.  Every method opens a
fresh connection (the server closes after each response), so a client
object is cheap and stateless apart from its address.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterator, Optional
from urllib.parse import urlsplit


class ServiceError(RuntimeError):
    """The server rejected a request or is unreachable."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talk to one campaign server."""

    def __init__(self, url: str = "http://127.0.0.1:8344",
                 timeout: float = 30.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ServiceError(f"unsupported scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 8344
        self.timeout = timeout

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _connect(self, timeout: float):
        # The HTTP stack (``http.client`` pulls in ``email`` and
        # ``ssl``) loads on first use, not when a process that never
        # talks to a server imports the client.
        import http.client

        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        connection = self._connect(
            self.timeout if timeout is None else timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            try:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (ConnectionError, OSError) as exc:
                raise ServiceError(
                    f"cannot reach campaign server at {self.url}: {exc}"
                ) from exc
            try:
                data = json.loads(raw.decode("utf-8")) if raw else {}
            except json.JSONDecodeError:
                data = {"error": raw.decode("utf-8", "replace")}
            if response.status >= 400:
                raise ServiceError(
                    data.get("error", f"HTTP {response.status}"),
                    status=response.status,
                )
            return data
        finally:
            connection.close()

    # -- API ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a campaign spec; returns ``{"id": ..., ...}``."""
        return self._request("POST", "/campaigns", body=spec)

    def campaigns(self) -> Dict[str, Any]:
        return self._request("GET", "/campaigns")

    def status(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{campaign_id}")

    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/campaigns/{campaign_id}/cancel")

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")

    def wait(
        self,
        campaign_id: str,
        timeout: float = 600.0,
        poll: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Block until the campaign reaches a terminal state.

        Long-polls the server's ``/wait`` endpoint in slices so a
        ``poll`` callback (progress reporting) can observe intermediate
        status, and so a dead server surfaces as :class:`ServiceError`
        rather than a silent hang.
        """
        from repro.service.dispatch import TERMINAL_STATES

        deadline = time.monotonic() + timeout
        while True:
            slice_timeout = min(5.0, max(0.1, deadline - time.monotonic()))
            status = self._request(
                "GET",
                f"/campaigns/{campaign_id}/wait?timeout={slice_timeout}",
                timeout=slice_timeout + self.timeout,
            )
            if poll is not None:
                poll(status)
            if status.get("state") in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"campaign {campaign_id} still "
                    f"{status.get('state')!r} after {timeout:.0f}s"
                )

    def stream_journal(
        self, campaign_id: str, follow: bool = True,
        timeout: float = 600.0,
    ) -> Iterator[bytes]:
        """Yield journal bytes (whole lines) as the server streams them."""
        connection = self._connect(timeout)
        try:
            try:
                connection.request(
                    "GET",
                    f"/campaigns/{campaign_id}/journal"
                    f"?follow={'1' if follow else '0'}",
                )
                response = connection.getresponse()
            except (ConnectionError, OSError) as exc:
                raise ServiceError(
                    f"cannot reach campaign server at {self.url}: {exc}"
                ) from exc
            if response.status >= 400:
                raise ServiceError(
                    response.read().decode("utf-8", "replace"),
                    status=response.status,
                )
            # read1 returns what has arrived instead of waiting for a
            # full buffer, so each line reaches the caller as soon as
            # the server streams it.
            partial = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    if partial:
                        yield partial
                    return
                partial += chunk
                cut = partial.rfind(b"\n") + 1
                if cut:
                    yield partial[:cut]
                    partial = partial[cut:]
        finally:
            connection.close()

    def fetch_journal(self, campaign_id: str, follow: bool = True,
                      timeout: float = 600.0) -> bytes:
        """The whole journal as bytes (after following to completion)."""
        return b"".join(
            self.stream_journal(campaign_id, follow=follow, timeout=timeout)
        )

    def wait_until_up(self, timeout: float = 10.0) -> Dict[str, Any]:
        """Poll ``/health`` until the server answers (startup races)."""
        deadline = time.monotonic() + timeout
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ServiceError as exc:
                last = exc
                time.sleep(0.05)
        raise ServiceError(
            f"campaign server at {self.url} did not come up "
            f"within {timeout:.0f}s: {last}"
        )
