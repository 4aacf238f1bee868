"""Exception hierarchy of the fault-tolerant experiment pipeline.

Every failure the pipeline knows how to recover from is raised as a
:class:`ReproError` subclass, so recovery code can catch the whole family
(or one branch of it) without accidentally swallowing programming errors
like ``TypeError``.

The hierarchy mirrors the pipeline stages::

    ReproError
    ├── CacheCorruptionError      dataset cache archive unusable
    ├── SimulationError           simulator produced non-finite output
    ├── TrainingDivergenceError   NaN/Inf loss during Trainer.fit
    ├── PoolError                 the worker pool itself is unusable
    ├── JournalError              sweep journal unusable for resume
    │   └── JournalMismatchError  journal belongs to another campaign
    ├── CampaignError             campaign config or run unusable
    │   └── CampaignConfigError   config failed schema validation
    └── ServeError                online inference service failures
        ├── RegistryError         model artifact unusable (tampered, stale)
        │   └── ModelNotFoundError   unknown model id or alias
        ├── OverloadError         admission queue full (HTTP 429)
        ├── DeadlineExceededError request deadline hit (HTTP 504)
        ├── ReplicaDiedError      replica crashed holding the request (503)
        ├── DrainingError         fleet is draining, not admitting (503)
        └── CircuitOpenError      no healthy replica / breaker open (503)
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all recoverable pipeline failures."""


class CacheCorruptionError(ReproError):
    """A cached dataset archive is truncated, corrupt, or stale.

    Raised by :func:`repro.datasets.cache.load_dataset`;
    :func:`repro.datasets.cache.cached_dataset` catches it, quarantines the
    archive, and regenerates the dataset.
    """

    def __init__(self, path, reason: str):
        super().__init__(f"corrupt cache archive {path}: {reason}")
        self.path = path
        self.reason = reason


class SimulationError(ReproError):
    """The RF simulator emitted non-finite (NaN/Inf) output."""


class TrainingDivergenceError(ReproError):
    """Training loss became NaN/Inf (``nan_policy="raise"``)."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(
            f"training diverged at epoch {epoch}: loss={loss!r}"
        )
        self.epoch = epoch
        self.loss = loss


class PoolError(ReproError):
    """The worker pool cannot run at all (e.g. no worker could start).

    Task-level failures never raise this — they become failed results;
    ``PoolError`` marks pool-level breakage, which the executor answers by
    degrading to the serial in-process path.
    """


class JournalError(ReproError):
    """A sweep journal cannot be used for the requested resume.

    Raised when the journal on disk is unreadable (no header line, an
    unknown journal version) or already closed.
    """

    def __init__(self, path, reason: str):
        super().__init__(f"unusable sweep journal {path}: {reason}")
        self.path = path
        self.reason = reason


class JournalMismatchError(JournalError):
    """The journal on disk belongs to a different campaign.

    Its header fingerprint (campaign name, config digest) differs from
    the requested one, so a resume would silently mix incompatible
    results.
    """


class CampaignError(ReproError):
    """A declarative campaign cannot run (bad config, unusable journal)."""


class CampaignConfigError(CampaignError):
    """A campaign config failed schema validation.

    ``errors`` lists every violation as ``field.path: message`` so a
    config with several typos reports all of them at once.
    """

    def __init__(self, source: str, errors: "list[str]"):
        self.source = source
        self.errors = list(errors)
        detail = "\n".join(f"  - {error}" for error in self.errors)
        super().__init__(
            f"invalid campaign config {source}:\n{detail}"
        )


class ServeError(ReproError):
    """Base class of online inference service failures.

    The HTTP layer maps each subclass to a status code, so clients see a
    typed JSON error instead of a stack trace; anything outside this
    branch is a programming error and surfaces as a 500.
    """


class RegistryError(ServeError):
    """A registry artifact is unusable: tampered weights (manifest
    checksum mismatch), a truncated archive, or a manifest with an
    unsupported schema.  Maps to HTTP 503 — the deployment is unhealthy,
    the request was fine."""

    def __init__(self, ref, reason: str):
        super().__init__(f"unusable model artifact {ref!r}: {reason}")
        self.ref = ref
        self.reason = reason


class ModelNotFoundError(RegistryError):
    """The requested model id or alias does not exist (HTTP 404)."""

    def __init__(self, ref):
        ReproError.__init__(self, f"unknown model reference {ref!r}")
        self.ref = ref
        self.reason = "not found"


class OverloadError(ServeError):
    """The engine's admission queue is full; the request was shed
    (HTTP 429) instead of growing the queue without bound."""


class DeadlineExceededError(ServeError):
    """The request's deadline elapsed before a result was produced
    (HTTP 504); the worker never wedges on an abandoned request."""


class ReplicaDiedError(ServeError):
    """The replica holding this in-flight request died (crash, kill -9,
    heartbeat-timeout termination) before producing a result.  Maps to
    HTTP 503: the request itself was fine and an idempotent client can
    retry it against the surviving replicas."""


class DrainingError(ServeError):
    """The fleet is draining (SIGTERM received): in-flight requests are
    being flushed but no new work is admitted.  Maps to HTTP 503 with
    Retry-After, pointing clients at another instance."""


class CircuitOpenError(ServeError):
    """No replica can take the request: every replica is dead/unhealthy
    or the per-model circuit breaker is open after consecutive failures.
    Maps to HTTP 503 with ``Retry-After: retry_after_s`` so clients back
    off for the breaker's cooldown instead of hammering a sick fleet."""

    def __init__(self, reason: str, retry_after_s: float = 1.0):
        super().__init__(reason)
        self.retry_after_s = float(retry_after_s)
