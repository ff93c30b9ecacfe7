"""Wire protocol for distributed verification.

The coordinator/worker protocol (:mod:`repro.verify.distributed`) moves
three things across a process or network boundary: shard specifications
going out, shard results coming back, and the small control vocabulary
(hello, heartbeat, shutdown) that keeps a long-running proof honest
about worker health. This module is the schema for all of it —
everything that touches a socket or a pipe is a :class:`WireMessage`
inside a length-prefixed frame, and nothing else is.

Framing and encodings
---------------------

A frame is ``4-byte big-endian length || 1 format byte || body``:

* format ``P`` — the body is a :mod:`pickle` of the envelope dict. Used
  for task and result messages, whose payloads (policies, shard specs,
  proof results) are arbitrary Python objects.
* format ``J`` — the body is UTF-8 JSON of the same envelope. Used for
  the control messages (hello, ping/pong, heartbeat, errors), whose
  payloads are plain dicts — so a worker's liveness protocol can be
  spoken (and debugged with ``nc``/``tcpdump``) without a Python peer.

Every envelope carries ``{"v": WIRE_VERSION, "kind", "task_id",
"payload"}``; :func:`decode_message` rejects any other version with
:class:`WireProtocolError`, so a coordinator and worker from different
releases fail loudly at the handshake instead of mis-merging shards.

Security note: the pickle format executes arbitrary code on decode, the
same trust model as :mod:`multiprocessing` pipes. Workers must only be
exposed on trusted networks (the reference deployment is localhost
subprocesses); there is no authentication layer.

Task payloads
-------------

The four task dataclasses mirror the shard workers of
:mod:`repro.verify.parallel` one for one — :class:`SweepTask` and
:class:`LivenessTask` wrap a :class:`~repro.verify.parallel.ShardSpec`,
:class:`ExpandTask` carries one BFS frontier chunk plus the
:class:`CheckerConfig` needed to rebuild the worker-side memoized
checker, and :class:`CampaignTask` carries one campaign slice. Their
results merge through the *unchanged* reducers of the parallel engine,
which is the whole point: the network boundary sits exactly where the
process-pool boundary already sat.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.topology.numa import NumaTopology
from repro.verify.campaign import CampaignConfig
from repro.verify.encoding import PackedState, StateCodec
from repro.verify.hierarchical import HierarchySpec
from repro.verify.parallel import PolicyReplicator, ShardSpec
from repro.verify.symmetry import SymmetryGroup
from repro.verify.transition import DEFAULT_MAX_ORDERS

#: Protocol version; bump on any incompatible envelope or payload change.
#: v2: ShardSpec/CheckerConfig grew symmetry-group, topology, and
#: hierarchy fields (the topology-aware symmetry engine).
#: v3: ExpandTask grew codec/packed fields — BFS frontier batches travel
#: in packed form (:mod:`repro.verify.encoding`) and results come back
#: as packed graphs the coordinator decodes once at closure end.
#: v4: asynchronous hash-partitioned exploration — the ``forward``
#: message kind (mid-task cross-partition successor frames), plus the
#: :class:`PartitionExpandTask`/:class:`PartitionControlTask` payloads
#: and their :class:`PartitionExpandResult`/:class:`ForwardBatch`
#: companions.
#: v5: observability — work-carrying tasks grew a ``trace`` flag, and a
#: worker asked to trace wraps its result in :class:`TracedResult`
#: (captured spans + the worker's clock reading, for coordinator-side
#: timeline merging). Incompatible because a v4 peer would hand the
#: wrapper to its reducers as if it were the result.
#: v6: :class:`ExpandTask` lost its tuple-form ``states`` field; the
#: packed ``codec`` is required.
WIRE_VERSION = 6

#: Format byte for pickle-encoded envelopes (arbitrary Python payloads).
FORMAT_PICKLE = b"P"
#: Format byte for JSON-encoded envelopes (control messages).
FORMAT_JSON = b"J"

#: Refuse frames larger than this (corrupt length prefix / wrong peer).
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct("!I")

# Message kinds.
HELLO = "hello"          #: handshake; JSON payload {"version", "pid"}
TASK = "task"            #: coordinator -> worker; payload is a *Task
RESULT = "result"        #: worker -> coordinator; payload is the result
ERROR = "error"          #: worker -> coordinator; JSON {"traceback"}
HEARTBEAT = "heartbeat"  #: worker -> coordinator while a task runs
PING = "ping"            #: liveness probe
PONG = "pong"            #: liveness probe response
SHUTDOWN = "shutdown"    #: coordinator -> worker; exit after this frame
FORWARD = "forward"      #: worker -> coordinator mid-task; a ForwardBatch

#: Kinds a conforming peer may send (decode rejects everything else).
ALL_KINDS = frozenset({
    HELLO, TASK, RESULT, ERROR, HEARTBEAT, PING, PONG, SHUTDOWN, FORWARD,
})


class WireProtocolError(VerificationError):
    """A frame violated the protocol (version, kind, size, or format)."""


class ConnectionClosed(WireProtocolError):
    """The peer closed the connection mid-frame or between frames."""


@dataclass(frozen=True)
class WireMessage:
    """One protocol message: a kind, an optional task id, a payload.

    Attributes:
        kind: one of the module-level kind constants.
        task_id: correlates results/heartbeats with the task they answer
            (-1 for control messages outside any task).
        payload: kind-specific content; must be picklable, and
            JSON-serialisable when sent in the JSON format.
    """

    kind: str
    task_id: int = -1
    payload: Any = None


# ---------------------------------------------------------------------------
# task payloads (coordinator -> worker)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckerConfig:
    """Everything needed to rebuild a worker-side model checker.

    Workers cache one memoized :class:`~repro.verify.model_checker.
    ModelChecker` per distinct config (keyed on this dataclass's pickle),
    so the branch/successor memos survive across every BFS level a proof
    sends them.

    Attributes:
        policy: the policy under verification (``None`` for hierarchical
            checking, where ``hierarchy`` defines the round).
        choice_mode: forwarded to the model checker.
        max_orders: forwarded to the model checker.
        symmetric: legacy flat-group flag, forwarded to the checker.
        symmetry: explicit symmetry group (overrides ``symmetric``).
        topology: machine layout for node-aware snapshot views.
        hierarchy: when given, workers build a
            :class:`~repro.verify.hierarchical.HierarchicalModelChecker`
            instead of the flat checker.
    """

    policy: Policy | None
    choice_mode: str = "all"
    max_orders: int = DEFAULT_MAX_ORDERS
    symmetric: bool = False
    symmetry: SymmetryGroup | None = None
    topology: NumaTopology | None = None
    hierarchy: HierarchySpec | None = None

    def cache_key(self) -> bytes:
        """Stable-enough key for the worker's per-config checker cache.

        A miss only costs a fresh (empty-memo) checker; correctness never
        depends on hits.
        """
        return pickle.dumps(self)


@dataclass(frozen=True)
class SweepTask:
    """Run the five state-sweep obligations over one shard's chunk.

    ``trace`` (v5, and on every other work-carrying task): ask the
    worker to record spans while executing and ship them back wrapped
    in :class:`TracedResult`. Strictly observational — the inner result
    is byte-identical either way.
    """

    spec: ShardSpec
    trace: bool = False


@dataclass(frozen=True)
class LivenessTask:
    """Run progress and good-state closure over one shard's chunk."""

    spec: ShardSpec
    trace: bool = False


@dataclass(frozen=True)
class ExpandTask:
    """Expand one BFS frontier chunk: successors of each state.

    The coordinator ships frontier chunks in packed form (``codec`` +
    ``packed``) and the worker answers with a packed graph.

    Attributes:
        config: checker parameters (workers memoize per config).
        codec: the closure's :class:`~repro.verify.encoding.StateCodec`.
        packed: the chunk of never-before-expanded frontier states,
            packed under ``codec``.
        sequential: §4.2 regime flag.
        trace: ship worker spans back (see :class:`SweepTask`).
    """

    config: CheckerConfig
    codec: StateCodec
    packed: tuple[PackedState, ...] = ()
    sequential: bool = False
    trace: bool = False


@dataclass(frozen=True)
class CampaignTask:
    """Run one worker's slice of a randomised campaign.

    Attributes:
        replicator: picklable policy factory.
        config: this slice's machine budget and derived seed.
    """

    replicator: PolicyReplicator
    config: CampaignConfig = field(default_factory=CampaignConfig)
    trace: bool = False


@dataclass(frozen=True)
class PartitionExpandTask:
    """Asynchronously drain one hash partition's pending states (v4).

    Unlike :class:`ExpandTask` (one chunk of a coordinator-owned BFS
    level), a partition task makes the *worker* own exploration state:
    the worker keeps a visited set per ``(run_id, partition)``, expands
    the batch *transitively* — same-partition successors never leave
    the worker — and streams cross-partition successors back to the
    coordinator as :data:`FORWARD` frames while it is still computing,
    so the coordinator can route them to other workers with no level
    barrier in between.

    Attributes:
        config: checker parameters (workers memoize per config).
        codec: the run's :class:`~repro.verify.encoding.StateCodec`.
        run_id: namespaces the worker-side visited sets; one proof run.
        partition: which hash partition this batch belongs to.
        n_partitions: the run's fixed partition count (the hash
            modulus; fixed at run start, never renegotiated).
        batch: never-before-routed states of ``partition``, packed.
        sequential: §4.2 regime flag.
        trace: ship worker spans back (see :class:`SweepTask`).
    """

    config: CheckerConfig
    codec: StateCodec
    run_id: str
    partition: int
    n_partitions: int
    batch: tuple[PackedState, ...] = ()
    sequential: bool = False
    trace: bool = False


@dataclass(frozen=True)
class PartitionControlTask:
    """Seed or drop worker-side partition state (v4).

    Sent when a partition migrates (work stealing, worker loss, a late
    join) or when a run finishes:

    * ``op="seed"`` — replace the worker's visited set for ``(run_id,
      partition)`` with ``visited`` (the states the coordinator has
      already merged edges for), so the new owner never re-expands
      finished work;
    * ``op="drop-run"`` — forget every partition of ``run_id`` (end of
      run cleanup; ``partition`` is ignored).
    """

    run_id: str
    op: str
    partition: int = -1
    visited: tuple[PackedState, ...] = ()


@dataclass(frozen=True)
class PartitionExpandResult:
    """What a :class:`PartitionExpandTask` answers with.

    Attributes:
        partition: echoes the task's partition.
        edges: packed successor map of every state this task expanded —
            the batch plus all same-partition states discovered while
            draining it (all keys hash to ``partition``).
        truncated: whether any enumeration was truncated.
        forwards: cross-partition successors *not* already streamed as
            :data:`FORWARD` frames (transports without a mid-task
            channel fall back to returning them here), keyed by target
            partition.
    """

    partition: int
    edges: dict[PackedState, frozenset[PackedState]]
    truncated: bool = False
    forwards: dict[int, tuple[PackedState, ...]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class ForwardBatch:
    """One mid-task forwarding frame: cross-partition successors.

    Emitted by a worker while a :class:`PartitionExpandTask` is still
    running, so forwarding pipelines with expansion instead of waiting
    for the task result.

    Attributes:
        run_id: the run the states belong to.
        partition: the source partition (the one being drained).
        targets: successor states grouped by their target partition.
    """

    run_id: str
    partition: int
    targets: dict[int, tuple[PackedState, ...]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class TracedResult:
    """A task result with the worker's captured spans riding along (v5).

    Workers answer a ``trace=True`` task with their ordinary result
    wrapped in this envelope; the coordinator unwraps it at the single
    point results re-enter the merge path, ingesting the spans with a
    clock-offset rebase (see :meth:`repro.obs.trace.Tracer.ingest`) so
    reducers only ever see the inner value.

    Attributes:
        value: the unmodified task result.
        spans: the worker's spans in dict form
            (:func:`repro.obs.trace.spans_to_payload`).
        clock: the worker's monotonic-clock reading at packaging time —
            the coordinator's offset anchor.
        pid: the worker's OS pid, for trace process attribution.
    """

    value: Any
    spans: tuple[dict[str, Any], ...] = ()
    clock: float = 0.0
    pid: int = -1


#: Task payload types :func:`repro.verify.distributed.WorkerRuntime`
#: accepts; anything else in a TASK message is a protocol error.
TASK_TYPES = (SweepTask, LivenessTask, ExpandTask, CampaignTask,
              PartitionExpandTask, PartitionControlTask)


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------


def encode_message(message: WireMessage, fmt: bytes = FORMAT_PICKLE) -> bytes:
    """Serialise a message to ``format byte || body``.

    Args:
        message: the message to encode.
        fmt: :data:`FORMAT_PICKLE` (any payload) or :data:`FORMAT_JSON`
            (payload must be JSON-serialisable).

    Raises:
        WireProtocolError: unknown kind or format, or a JSON encode of a
            non-JSON-serialisable payload.
    """
    if message.kind not in ALL_KINDS:
        raise WireProtocolError(f"unknown message kind {message.kind!r}")
    envelope = {
        "v": WIRE_VERSION,
        "kind": message.kind,
        "task_id": message.task_id,
        "payload": message.payload,
    }
    if fmt == FORMAT_PICKLE:
        return FORMAT_PICKLE + pickle.dumps(envelope)
    if fmt == FORMAT_JSON:
        try:
            return FORMAT_JSON + json.dumps(envelope).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise WireProtocolError(
                f"payload of {message.kind!r} is not JSON-serialisable:"
                f" {exc}"
            ) from exc
    raise WireProtocolError(f"unknown wire format {fmt!r}")


def decode_message(data: bytes) -> WireMessage:
    """Parse ``format byte || body`` back into a :class:`WireMessage`.

    Raises:
        WireProtocolError: empty/truncated data, unknown format byte,
            undecodable body, version mismatch, or unknown kind.
    """
    if not data:
        raise WireProtocolError("empty frame")
    fmt, body = data[:1], data[1:]
    try:
        if fmt == FORMAT_PICKLE:
            envelope = pickle.loads(body)
        elif fmt == FORMAT_JSON:
            envelope = json.loads(body.decode("utf-8"))
        else:
            raise WireProtocolError(f"unknown wire format {fmt!r}")
    except WireProtocolError:
        raise
    except Exception as exc:
        raise WireProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireProtocolError(
            f"frame body is {type(envelope).__name__}, expected an envelope"
        )
    version = envelope.get("v")
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"wire version mismatch: peer speaks {version!r}, this build"
            f" speaks {WIRE_VERSION}"
        )
    kind = envelope.get("kind")
    if kind not in ALL_KINDS:
        raise WireProtocolError(f"unknown message kind {kind!r}")
    return WireMessage(
        kind=kind,
        task_id=envelope.get("task_id", -1),
        payload=envelope.get("payload"),
    )


# ---------------------------------------------------------------------------
# framing over sockets
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, message: WireMessage,
                 fmt: bytes = FORMAT_PICKLE) -> None:
    """Encode and send one length-prefixed frame."""
    data = encode_message(message, fmt=fmt)
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    """Read exactly ``n_bytes``, raising :class:`ConnectionClosed` on EOF."""
    chunks: list[bytes] = []
    remaining = n_bytes
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {n_bytes} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket,
                 max_frame: int = MAX_FRAME_BYTES) -> WireMessage:
    """Receive and decode one length-prefixed frame.

    Honours the socket's configured timeout (``socket.timeout`` — a
    subclass of ``OSError`` — propagates to the caller, which is how the
    coordinator implements its heartbeat patience).

    Raises:
        ConnectionClosed: the peer hung up.
        WireProtocolError: oversized or malformed frame.
    """
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > max_frame:
        raise WireProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return decode_message(_recv_exact(sock, length))


def hello_payload() -> dict[str, Any]:
    """The JSON payload both sides exchange in the HELLO handshake."""
    import os

    return {"version": WIRE_VERSION, "pid": os.getpid()}
