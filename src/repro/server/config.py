"""The daemon's configuration: :class:`ServerConfig`.

Its own module so that ``repro client …`` and the ``serve`` argument parser
read the flag declarations without importing the daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ServerConfig"]


def _flag(default, flag: str, help: str | None = None, **argparse_kwargs):
    """A :class:`ServerConfig` field that ``repro serve`` exposes as
    ``flag``: :mod:`repro.cli` builds the parser from this metadata, so a
    knob's flag, default and help are declared here, once.  Extra keys go
    to ``add_argument`` (``type`` when the default is None, ``metavar``,
    ``action``), except ``zero_disables`` (N ≤ 0 on the command line means
    None) and ``off`` (a second ``(flag, help)`` that sets the field None)."""
    return field(default=default, metadata={"flag": flag, "help": help, **argparse_kwargs})


@dataclass
class ServerConfig:
    """Tuning knobs of one daemon instance.

    Fields declared with :func:`_flag` are ``repro serve`` flags; the rest
    are deliberately not — fault injection, negative controls and sweep
    periods that only tests and the chaos suites set.
    """

    host: str = _flag("127.0.0.1", "--host")
    #: read the bound port of an ephemeral listener from ``server.port``
    port: int = _flag(0, "--port", "0 = ephemeral")
    workers: int = _flag(4, "--workers")
    queue_size: int = _flag(64, "--queue-size")
    #: default and maximum of a request's own ``step_limit``
    step_limit: int = _flag(5_000_000, "--step-limit", "per-request TAM instruction budget")
    #: transaction lock acquisition timeout (seconds)
    lock_timeout: float = _flag(10.0, "--lock-timeout")
    pgo_interval: float | None = _flag(
        30.0, "--pgo-interval", "seconds between background PGO rounds",
        off=("--no-pgo", "disable the background PGO worker"),
    )
    #: collect per-closure evidence from every execution request (the PGO
    #: worker's input; it does not take a request out of the compiled tier)
    profile: bool = True
    enable_debug_ops: bool = _flag(
        False, "--debug-ops", "enable debug protocol ops (sleep) — test use only"
    )
    #: seconds a connection may sit idle (no frames) before the daemon
    #: closes it, aborting any open transaction; None disables the timeout.
    #: Without it, a silently dead client holding a write transaction wedges
    #: every writer until lock_timeout.
    idle_timeout: float | None = _flag(
        300.0, "--idle-timeout", "seconds before an idle session is reaped (0 disables)",
        zero_disables=True,
    )
    #: period of the session reaper sweep (idle-timeout enforcement even
    #: for sessions whose reader thread is not currently in recv)
    reaper_interval: float = 5.0
    replicate: bool = _flag(
        False, "--replicate", "primary role: keep a commit log and accept replica subscriptions"
    )
    replica_of: tuple[str, int] | None = _flag(
        None, "--replica-of", "replica role: follow this primary's commit stream (read-only)",
        type=str, metavar="HOST:PORT",
    )
    node_id: str = _flag("", "--node-id", "replication node id (default host:port)")
    sync_replicas: int = _flag(
        0, "--sync-replicas", "acknowledge writes only after N replicas applied them"
    )
    replication_timeout: float = _flag(
        5.0, "--replication-timeout", "seconds a sync write waits for its ack quorum"
    )
    #: term fencing on (the only sane setting; the chaos harness disables
    #: it as a negative control to prove fencing is load-bearing)
    fence: bool = True
    trace_sample: float = _flag(
        1.0, "--trace-sample",
        "probability an unstamped request roots a new trace when a recorder is attached "
        "(stamped requests always honor the stamp)",
    )
    slowlog_capacity: int = _flag(
        32, "--slowlog-capacity", "slowest requests kept in the in-memory slowlog ring"
    )
    history_interval: float | None = _flag(
        60.0, "--history-interval", "seconds between in-image metric snapshots (0 disables)",
        zero_disables=True,
    )
    coordinator: bool = _flag(
        False, "--coordinator",
        "shard coordinator role: route by the consistent-hash ring, run cross-shard writes "
        "as 2PC, serve scatter-gather (see docs/sharding.md)",
    )
    #: a topology built directly from config (coordinator and
    #: hand-assembled participants)
    shards: list[list[tuple[str, int]]] | None = _flag(
        None, "--shard",
        "one shard group's endpoints (primary plus replicas); repeat per group — group "
        "order defines shard ids",
        type=str, action="append", metavar="HOST:PORT[,HOST:PORT...]",
    )
    shard_id: int | None = _flag(
        None, "--shard-id",
        "this daemon's own shard id within --shard (participants enforce ring ownership "
        "and answer wrong_shard with a hint)",
        type=int,
    )
    shard_vnodes: int = _flag(64, "--vnodes", "virtual nodes per shard on the hash ring")
    #: overall time budget for one cross-shard operation (2PC, scatter),
    #: and of each request the coordinator sends a shard, retries included
    twopc_timeout: float = 15.0
    #: period of the coordinator's in-doubt resolver (None: boot pass only)
    resolver_interval: float | None = 2.0
    #: durably record the 2PC commit decision before phase two (the only
    #: sane setting; the sharding chaos harness disables it as the
    #: negative control that proves the decision fsync is load-bearing)
    durable_decisions: bool = True
    #: crash the coordinator at a named 2PC point — ``after-prepare``,
    #: ``after-decision`` or ``mid-decide`` (test/chaos use only)
    twopc_failpoint: str | None = None
    read_only: bool = _flag(
        False, "--read-only",
        "start in degraded read-only mode (manual operator override; never auto-recovers "
        "— see docs/durability.md)",
    )
    #: a probe is an fsck-verify then a no-op commit
    degraded_probe_interval: float | None = _flag(
        2.0, "--degraded-probe-interval",
        "seconds between writability re-probes while degraded after a disk fault "
        "(0 disables auto-recovery)",
        zero_disables=True,
    )
    mem_budget_bytes: int | None = _flag(
        None, "--mem-budget",
        "heap-cache byte budget: writes beyond it shed busy-style and the watchdog shrinks "
        "the cache (0 = unbounded)",
        type=int, zero_disables=True, metavar="BYTES",
    )
    #: one session holds the single write txn, so this bounds per-session
    #: uncommitted memory
    mem_txn_budget_objects: int | None = _flag(
        None, "--mem-txn-budget", "per-transaction dirty-object budget (0 = unbounded)",
        type=int, zero_disables=True, metavar="OBJECTS",
    )
    #: period of the memory watchdog sweep
    mem_watchdog_interval: float = 1.0
    queue_wait_limit: float | None = _flag(
        5.0, "--queue-wait-limit",
        "shed a pooled request that waited longer than this in the admission queue "
        "(overloaded error; 0 disables)",
        zero_disables=True,
    )
    #: a slow client must not pin a worker thread
    send_timeout: float | None = _flag(
        20.0, "--send-timeout",
        "close a session whose socket send has been blocked longer than this (0 disables "
        "the slow-client reaper)",
        zero_disables=True,
    )
    #: seal commit-log frames into checksummed archive segments before any
    #: reset/truncation discards them — the continuous-archiving half of
    #: incremental backup + point-in-time restore (repro.store.recovery)
    archive: bool = _flag(
        True, "--no-archive",
        "skip continuous commit-log archiving (no point-in-time restore: log resets "
        "discard restore points; see docs/recovery.md)",
    )
    #: a cycle re-reads every committed object's page chain through the
    #: checksum layer, catching bit rot on pages no request touches
    scrub_interval: float | None = _flag(
        None, "--scrub-interval",
        "seconds between background integrity-scrub cycles (0 disables; corruption "
        "degrades the daemon and, on a replica, triggers anti-entropy repair)",
        type=float, zero_disables=True,
    )
    scrub_pages_per_sec: int = _flag(
        0, "--scrub-pages-per-sec", "scrub disk-read budget in pages per second (0 = unbounded)"
    )
    #: file factory slid under the pager (fault injection; None = open())
    io_factory: object = None
    #: NEGATIVE CONTROL ONLY — disables the degraded-mode flip and the
    #: durable rollback on commit I/O failure, reproducing the unprotected
    #: behavior the exhaustion harness proves is broken
    unsafe_no_degraded: bool = False
