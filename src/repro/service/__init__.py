"""Campaign-as-a-service: the sharded, health-monitored fault-injection
server (``repro serve``) and its client.

See ``docs/service.md`` for the API, the sharding/work-stealing model,
and the health/retry/backoff/quarantine semantics.  The load-bearing
invariant: a campaign submitted over HTTP produces a journal
byte-identical to the same one-shot ``inject`` CLI run — retries,
worker crashes, and work-stealing can reorder execution but never
change results.
"""

import importlib

#: Where each public name lives.  Names resolve on first use (PEP 562),
#: so a client process (``repro submit``, a benchmark) that needs only
#: :class:`ServiceClient` never imports the server, the dispatcher or
#: ``asyncio``.
_EXPORTS = {
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "CampaignSpec": "repro.service.dispatch",
    "CampaignTask": "repro.service.dispatch",
    "CANCELLED": "repro.service.dispatch",
    "COMPLETED": "repro.service.dispatch",
    "FAILED": "repro.service.dispatch",
    "FuzzSpec": "repro.service.dispatch",
    "FuzzTask": "repro.service.dispatch",
    "INTERRUPTED": "repro.service.dispatch",
    "QUEUED": "repro.service.dispatch",
    "RUNNING": "repro.service.dispatch",
    "SpecError": "repro.service.dispatch",
    "STARTING": "repro.service.dispatch",
    "TERMINAL_STATES": "repro.service.dispatch",
    "BatchState": "repro.runtime.health",
    "ExponentialBackoff": "repro.runtime.health",
    "HealthMonitor": "repro.runtime.health",
    "WorkerHealth": "repro.runtime.health",
    "default_batch_size": "repro.runtime.health",
    "shard_batches": "repro.runtime.health",
    "CampaignServer": "repro.service.server",
    "DEFAULT_HOST": "repro.service.server",
    "DEFAULT_PORT": "repro.service.server",
    "run_server": "repro.service.server",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
