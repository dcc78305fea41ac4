"""Shard workers and the pools that drive them.

A :class:`ShardWorker` owns one shard outright — its
:class:`~repro.em.machine.Machine`, the shard's record file, and a
:class:`~repro.service.online.LazyPartitionIndex` over it — and is
driven purely by request messages; it never reaches into another
shard's state (emlint rule R7), and nothing outside it reaches into
its own.  The same worker runs in-process today and inside a real
child process behind the same message protocol, mirroring the
experiment runner's serial/parallel split.

The request/reply protocol is :data:`~repro.shard.protocol.PROTOCOL`:
the worker dispatches through it and stamps each reply's kind from it,
and both pools share one :meth:`request` path that rejects unknown
kinds at the coordinator.  Every reply carries the worker's measured
I/O delta, which the router feeds into per-shard I/O histograms —
identically for in-process and process workers, since the numbers
travel in the message envelope.
"""

from __future__ import annotations

import multiprocessing

import numpy as np

from ..alg.sampling import approx_quantile_pivots
from ..em.machine import Machine
from ..em.records import empty_records
from ..em.streams import BlockWriter
from ..service.online import LazyPartitionIndex
from .protocol import ERROR, PROTOCOL
from .transport import (
    TRANSPORTS,
    Message,
    PipeTransport,
    ShardError,
    Transport,
)

__all__ = [
    "ShardWorker",
    "InProcessWorkerPool",
    "ProcessWorkerPool",
    "make_pool",
    "WORKER_KINDS",
]


class ShardWorker:
    """One shard: a private machine, its record file, and a lazy engine."""

    def __init__(
        self,
        shard: int,
        transport: Transport,
        *,
        memory: int,
        block: int,
        sanitize: bool | None = None,
    ) -> None:
        self.shard = int(shard)
        self._machine = Machine(
            memory,
            block,
            sanitize=sanitize,
            label=f"shard-{shard}",
        )
        self._endpoint = transport.worker_end(self._machine)
        self._writer: BlockWriter | None = None
        self._file = None
        self._engine: LazyPartitionIndex | None = None
        self._done = False

    # ------------------------------------------------------------------
    # Message loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Receive one request, handle it, send the reply.

        Returns ``False`` once a ``shutdown`` has been processed.  All
        handler failures become ``error`` replies rather than
        exceptions: the worker must stay alive to report them.
        """
        with self._machine.measure() as cost:
            message = self._endpoint.recv()
            try:
                kind, payload = self._handle(message)
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                kind, payload = ERROR, f"{type(exc).__name__}: {exc}"
        self._endpoint.send(
            Message(kind, payload, io=(cost.reads, cost.writes, cost.comparisons))
        )
        return not self._done

    def run(self) -> None:
        """Serve until shutdown (the process-worker main loop)."""
        while self.step():
            pass

    def _handle(self, message: Message) -> tuple[str, object]:
        request = PROTOCOL.get(message.kind)
        if request is None:
            raise ShardError(
                f"shard {self.shard}: unknown request kind {message.kind!r}"
            )
        if request.sealed and self._engine is None:
            raise ShardError(f"shard {self.shard}: {message.kind!r} before seal")
        return request.reply, _HANDLERS[request.kind](self, message.payload)

    # ------------------------------------------------------------------
    # Handlers (one per PROTOCOL row; each returns the reply payload)
    # ------------------------------------------------------------------
    def _ingest(self, records) -> int:
        if self._writer is None:
            self._writer = BlockWriter(self._machine, "shard-ingest")
        self._writer.write(records)
        return self._writer.records_written

    def _seal(self, k) -> int:
        if self._writer is None:
            self._writer = BlockWriter(self._machine, "shard-ingest")
        self._file = self._writer.close()
        self._writer = None
        self._engine = LazyPartitionIndex(self._machine, self._file, k=max(1, int(k)))
        return len(self._file)

    def _select(self, ranks) -> np.ndarray:
        return self._engine.batch_select(np.asarray(ranks, dtype=np.int64))

    def _range_count(self, bounds) -> int:
        lo, hi = bounds
        return self._engine.range_count(int(lo), int(hi))

    def _part(self, key) -> int:
        return self._engine.partition_of(int(key))

    def _nleaves(self, _payload) -> int:
        return self._engine.n_leaves

    def _pivots(self, n_pivots) -> np.ndarray:
        n_pivots = int(n_pivots)
        if n_pivots < 1 or len(self._file) == 0:
            return empty_records(0)
        return approx_quantile_pivots(self._machine, self._file, n_pivots)

    def _shutdown(self, _payload) -> None:
        self._done = True
        self._teardown()

    def _io_stats(self, _payload) -> dict:
        m = self._machine
        return {
            "shard": self.shard,
            "n": len(self._file) if self._file is not None else 0,
            "reads": m.io.reads,
            "writes": m.io.writes,
            "comparisons": m.comparisons,
            # This worker's own disk, via a local alias (R7 sees only
            # the name chain, and lifetime counters live on the disk).
            "lifetime_reads": m.disk.lifetime.reads,  # emlint: disable=R7
            "lifetime_writes": m.disk.lifetime.writes,  # emlint: disable=R7
            "lifetime_comparisons": m.lifetime_comparisons,
            "M": m.M,
            "B": m.B,
            "stats": dict(self._engine.stats) if self._engine is not None else {},
        }

    def _teardown(self) -> None:
        if self._writer is not None:
            self._writer.abort()
            self._writer = None
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        if self._file is not None:
            self._file.free()
            self._file = None
        self._machine.close()


#: kind -> handler, resolved once: a PROTOCOL row naming a missing
#: method fails at import, not on the first request of that kind.
_HANDLERS = {
    kind: getattr(ShardWorker, request.handler)
    for kind, request in PROTOCOL.items()
}


# ----------------------------------------------------------------------
# Worker pools
# ----------------------------------------------------------------------
class _WorkerPool:
    """The coordinator side both pools share; subclasses supply
    ``_exchange`` (deliver one request, return its reply)."""

    _ends: list

    @property
    def nshards(self) -> int:
        return len(self._ends)

    def request(self, shard: int, kind: str, payload: object = None) -> Message:
        """Send one request to ``shard`` and return the worker's reply.

        A kind missing from :data:`~repro.shard.protocol.PROTOCOL`
        raises :class:`ShardError` here, before anything is sent or
        charged; an ``error`` reply raises it with the worker's message.
        """
        if kind not in PROTOCOL:
            raise ShardError(f"shard {shard}: unknown request kind {kind!r}")
        reply = self._exchange(shard, Message(kind, payload))
        if reply.kind == ERROR:
            raise ShardError(f"shard {shard}: {reply.payload}")
        return reply

    def _exchange(self, shard: int, message: Message) -> Message:
        raise NotImplementedError  # pragma: no cover - abstract


class InProcessWorkerPool(_WorkerPool):
    """Synchronous in-process workers: a request runs the worker's
    message loop inline.  ``transport`` selects reference-passing
    (``"inproc"``) or pickle-round-trip (``"serialized"``) links."""

    kind = "inproc"

    def __init__(
        self,
        coordinator: "Machine",
        nshards: int,
        *,
        shard_memory: int,
        shard_block: int,
        transport: str = "inproc",
        sanitize: bool | None = None,
    ) -> None:
        if nshards < 1:
            raise ValueError("need at least one shard")
        transport_cls = TRANSPORTS[transport]
        self._workers: list[ShardWorker | None] = []
        self._ends = []
        for shard in range(nshards):
            link = transport_cls(shard)
            worker = ShardWorker(
                shard,
                link,
                memory=shard_memory,
                block=shard_block,
                sanitize=sanitize,
            )
            self._ends.append(link.coordinator_end(coordinator))
            self._workers.append(worker)

    def _exchange(self, shard: int, message: Message) -> Message:
        worker = self._workers[shard]
        if worker is None:
            raise ShardError(f"shard {shard} worker is dead")
        self._ends[shard].send(message)
        worker.step()
        return self._ends[shard].recv()

    def kill(self, shard: int) -> None:
        """Chaos hook: make ``shard``'s worker unreachable, leaking its
        machine exactly as a crashed process would."""
        self._workers[shard] = None

    def close(self) -> None:
        """Shut every live worker down (idempotent; dead shards skipped)."""
        for shard, worker in enumerate(self._workers):
            if worker is not None:
                self.request(shard, "shutdown")
                self._workers[shard] = None


def _process_worker_main(
    conn,
    shard: int,
    memory: int,
    block: int,
    sanitize: bool | None,
) -> None:  # pragma: no cover - runs in the child process
    worker = ShardWorker(
        shard,
        PipeTransport(shard, conn),
        memory=memory,
        block=block,
        sanitize=sanitize,
    )
    try:
        worker.run()
    except EOFError:
        pass  # coordinator vanished; nothing left to reply to
    finally:
        conn.close()


class ProcessWorkerPool(_WorkerPool):
    """One OS process per shard over a duplex pipe.

    The child builds its own :class:`ShardWorker` (machine and all) and
    serves the same protocol; replies still carry the worker-side I/O
    envelope, so coordinator-side accounting and metrics are identical
    to the in-process pool.  A dead child surfaces as
    :class:`ShardError` on the next request.
    """

    kind = "process"

    def __init__(
        self,
        coordinator: "Machine",
        nshards: int,
        *,
        shard_memory: int,
        shard_block: int,
        transport: str = "pipe",  # accepted for interface symmetry
        sanitize: bool | None = None,
    ) -> None:
        if nshards < 1:
            raise ValueError("need at least one shard")
        ctx = multiprocessing.get_context()
        self._procs = []
        self._ends = []
        for shard in range(nshards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_process_worker_main,
                args=(child_conn, shard, shard_memory, shard_block, sanitize),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._ends.append(
                PipeTransport(shard, parent_conn).coordinator_end(coordinator)
            )
            self._procs.append(proc)

    def _exchange(self, shard: int, message: Message) -> Message:
        if self._procs[shard] is None:
            raise ShardError(f"shard {shard} worker is dead")
        try:
            self._ends[shard].send(message)
            return self._ends[shard].recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            self._reap(shard)
            raise ShardError(f"shard {shard} worker died: {exc!r}") from exc

    def kill(self, shard: int) -> None:
        """Chaos hook: hard-kill the shard's process."""
        proc = self._procs[shard]
        if proc is not None:
            proc.terminate()
            proc.join()

    def _reap(self, shard: int) -> None:
        proc = self._procs[shard]
        if proc is not None:
            proc.join(timeout=5)
            self._procs[shard] = None

    def close(self) -> None:
        for shard, proc in enumerate(self._procs):
            if proc is None:
                continue
            try:
                self.request(shard, "shutdown")
            except ShardError:
                pass  # already dead; just reap below
            self._reap(shard)


#: Pool implementations selectable by name from the CLI / router.
WORKER_KINDS = {
    InProcessWorkerPool.kind: InProcessWorkerPool,
    ProcessWorkerPool.kind: ProcessWorkerPool,
}


def make_pool(kind: str, coordinator: "Machine", nshards: int, **kwargs):
    """Build a worker pool by name (``"inproc"`` or ``"process"``)."""
    try:
        pool_cls = WORKER_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(WORKER_KINDS))
        raise ValueError(f"unknown worker kind {kind!r}; known: {known}") from None
    return pool_cls(coordinator, nshards, **kwargs)
