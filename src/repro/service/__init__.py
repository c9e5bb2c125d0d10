"""Campaign-as-a-service: the sharded, health-monitored fault-injection
server (``repro serve``) and its client.

See ``docs/service.md`` for the API, the sharding/work-stealing model,
and the health/retry/backoff/quarantine semantics.  The load-bearing
invariant: a campaign submitted over HTTP produces a journal
byte-identical to the same one-shot ``inject`` CLI run — retries,
worker crashes, and work-stealing can reorder execution but never
change results.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatch import (
    CampaignSpec,
    CampaignTask,
    CANCELLED,
    COMPLETED,
    FAILED,
    FuzzSpec,
    FuzzTask,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    SpecError,
    STARTING,
    TERMINAL_STATES,
)
from repro.runtime.health import (
    BatchState,
    ExponentialBackoff,
    HealthMonitor,
    WorkerHealth,
    default_batch_size,
    shard_batches,
)
from repro.service.server import (
    CampaignServer,
    DEFAULT_HOST,
    DEFAULT_PORT,
    run_server,
)

__all__ = [
    "BatchState",
    "CANCELLED",
    "COMPLETED",
    "CampaignServer",
    "CampaignSpec",
    "CampaignTask",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ExponentialBackoff",
    "FAILED",
    "FuzzSpec",
    "FuzzTask",
    "HealthMonitor",
    "INTERRUPTED",
    "QUEUED",
    "RUNNING",
    "STARTING",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "TERMINAL_STATES",
    "WorkerHealth",
    "default_batch_size",
    "run_server",
    "shard_batches",
]
