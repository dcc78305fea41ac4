"""The coordinator → shard-worker request protocol, stated once.

:data:`PROTOCOL` maps every request kind to its payload, the reply kind
the worker answers with, and the
:class:`~repro.shard.worker.ShardWorker` method that handles it.  Both
ends read this one table:

* the worker dispatches through it and stamps each reply's kind from
  it — a handler returns only the reply payload, so it cannot answer
  with the wrong kind;
* the pools reject a kind that is not in it at the coordinator, before
  anything is sent or charged.

Every reply carries the worker's measured ``(reads, writes,
comparisons)`` delta for receiving and handling the request (the
reply's own transmission is charged separately).  A failing handler
replies :data:`ERROR` with the exception text, and the pools raise that
as :class:`~repro.shard.transport.ShardError` at the coordinator.

Kind strings are charged wire content
(:func:`repro.em.wire.payload_words` counts them), so renaming one
moves simulated I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Request", "PROTOCOL", "ERROR"]

#: Reply kind of a request whose handler raised.
ERROR = "error"


@dataclass(frozen=True)
class Request:
    """One request kind: what it carries and how the worker answers."""

    kind: str
    #: what the request's payload is
    payload: str
    #: the reply kind the worker stamps on its answer
    reply: str
    #: what the reply's payload is
    answer: str
    #: the :class:`~repro.shard.worker.ShardWorker` method handling it
    handler: str
    #: refused (with an :data:`ERROR` reply) until the shard is sealed
    sealed: bool = False


PROTOCOL: dict[str, Request] = {
    r.kind: r
    for r in (
        Request("ingest", "record array chunk", "ok", "records so far",
                "_ingest"),
        Request("seal", "leaf target k", "sealed", "shard size n", "_seal"),
        Request("select", "local 1-based rank array", "records",
                "record array", "_select", sealed=True),
        Request("range_count", "(lo_key, hi_key)", "count", "int",
                "_range_count", sealed=True),
        Request("part", "key", "leaf", "local leaf index", "_part",
                sealed=True),
        Request("nleaves", "-", "nleaves", "current leaf count",
                "_nleaves", sealed=True),
        Request("pivots", "n_pivots", "pivots", "candidate records",
                "_pivots", sealed=True),
        Request("io_stats", "-", "io_stats", "counter dict", "_io_stats"),
        Request("shutdown", "-", "bye", "-", "_shutdown"),
    )
}
