"""The asyncio match service (``repro serve``, DESIGN.md §3.8).

One long-lived process owns the compiled-artifact cache
(:class:`~repro.service.cache.ArtifactCache`) and one warm chunk executor,
and serves ``compile`` / ``analyze`` / ``match`` / ``scan`` /
``finditer`` / ``multiscan`` requests plus stateful ``stream`` sessions
over TCP.  ``analyze`` runs the §3.9 static analysis (nothing compiled,
nothing scanned) and ``compile`` replies carry a compact ``analysis``
summary next to the stage sizes, so a client learns about blowup risk
and prefilter plans from the op it already calls.  The
asyncio loop moves bytes, dispatches, and runs the one cheap case itself:
a ``match``/``finditer``/``multiscan`` hit whose automata are built and
whose payload is at most :data:`INLINE_MAX_BYTES`.  Every other engine
call — misses, ``compile``, ``scan``, streams, large payloads — runs on a
bounded thread pool (NumPy kernels release the GIL, and the process
executor's chunk scans run on worker processes), so slow compiles and
scans never stall other connections' cache hits.

Lifecycle: :meth:`MatchService.start` binds, :meth:`MatchService.stop`
drains gracefully — stop accepting, let in-flight requests finish (bounded
by ``drain_timeout``), close stream sessions, shut the thread pool and the
owned executor pool down.  A ``shutdown`` request does the same from the
wire.

Backpressure: request payloads are capped at ``max_payload`` (oversized
payloads are drained and answered with a structured error, so the
connection survives); concurrent heavy requests are bounded by the thread
pool plus a semaphore sized to it; replies go through ``writer.drain()``
so a slow-reading client throttles only itself.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.automata.lazy import NotMaterialized, materialized_only
from repro.errors import RegexSyntaxError, ReproError, ServiceError
from repro.planning.plan import Plan, resolve_plan
from repro.service.cache import ArtifactCache, scans_built
from repro.service.metrics import MetricsBoard, ServiceMetrics
from repro.service.protocol import (
    DEFAULT_MAX_PAYLOAD,
    DRAIN_CEILING,
    MAX_HEADER_BYTES,
    ProtocolError,
    encode_message,
    error_reply,
    parse_header,
)

#: Per-connection cap on simultaneously open stream sessions.
MAX_STREAMS_PER_CONNECTION = 64

#: How long a worker waits for a master-propagated ruleset reload to
#: reach it before answering the ``reload`` request with an error.
RELOAD_PROPAGATION_TIMEOUT = 15.0

#: Largest payload a cache hit scans on the event loop instead of the
#: handler pool (DESIGN.md §3.8): the hop costs more than a hit's scan.
INLINE_MAX_BYTES = 64 << 10


def load_rules_file(path: str) -> List[str]:
    """Rule sources from a text pattern file (one regex per line, ``#``
    comments) — the named-ruleset loader ``reload`` re-runs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError:
        raise ServiceError(
            f"{path} is not a text pattern file", kind="compile"
        ) from None
    except OSError as e:
        raise ServiceError(
            f"cannot read ruleset file {path}: {e.strerror or e}",
            kind="compile",
        ) from None
    rules = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rules:
        raise ServiceError(f"no rules found in {path}", kind="compile")
    return rules


class NamedRuleset:
    """One hot-reloadable ruleset: a name, its source file, the compiled
    set currently serving, and the version it was loaded at."""

    __slots__ = ("name", "path", "mps", "version")

    def __init__(self, name: str, path: str, mps, version: int):
        self.name = name
        self.path = path
        self.mps = mps
        self.version = version


def _pattern_analysis(m) -> Dict[str, Any]:
    """Compact §3.9 metadata for a single-pattern compile reply.

    Computed from the already-parsed AST — no determinization, no scan —
    so it rides along on every compile at parse-level cost.
    """
    from repro.analysis import analyze_ast

    r = analyze_ast(m.ast, pattern=m.pattern, ignore_case=m.ignore_case)
    return {
        "nullable": r.facts.nullable,
        "min_len": r.facts.min_len,
        "max_len": r.facts.max_len,
        "dfa_states_bound": r.facts.dfa_states_bound,
        "prefilter": r.prefilter.to_dict() if r.prefilter else None,
        "warnings": [w.code for w in r.warnings],
    }


def _ruleset_analysis(mps) -> Dict[str, Any]:
    """Compact lint summary for a ruleset compile reply."""
    from repro.analysis import analyze_ruleset

    r = analyze_ruleset(
        [(p, bool(f)) for p, f in zip(mps.patterns, mps.rule_flags)],
        mode=mps.mode,
    )
    return {
        "rules": len(r.rules),
        "warnings": [w.code for w in r.all_warnings()],
    }


def _error_kind(exc: ReproError) -> str:
    if isinstance(exc, ServiceError):
        return exc.kind
    if isinstance(exc, RegexSyntaxError):
        return "compile"
    return "engine"


class _StreamSession:
    """One stateful stream cursor plus its reply shaping."""

    def __init__(self, kind: str, matcher):
        self.kind = kind
        self.matcher = matcher
        self.bytes_fed = 0

    def feed(self, payload: bytes) -> Dict[str, Any]:
        self.bytes_fed += len(payload)
        out = self.matcher.feed(payload)
        if self.kind == "spans":
            return {"spans": [[s, e] for s, e in out]}
        if self.kind == "multispans":
            return {"spans": [[r, s, e] for r, s, e in out]}
        return {"rules": sorted(out)}

    def finish(self) -> Dict[str, Any]:
        if self.kind == "spans":
            return {"spans": [[s, e] for s, e in self.matcher.finish()]}
        if self.kind == "multispans":
            return {"spans": [[r, s, e] for r, s, e in self.matcher.finish()]}
        return {
            "rules": sorted(self.matcher.finish()),
            "matched": sorted(self.matcher.matched_rules()),
        }


class MatchService:
    """The long-lived TCP match server.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    cache_size:
        LRU capacity of the compiled-artifact cache, in entries.
    executor:
        ``"threads"``/``"processes"`` to build one warm shared chunk
        executor for the server's lifetime (``None``: chunked requests use
        the in-process lockstep path).  The pool is created at
        :meth:`start` and drained at :meth:`stop`.
    num_workers:
        Pool size for the shared executor (default: CPU count).
    max_payload:
        Per-request payload cap in bytes.
    handler_threads:
        Size of the engine-call thread pool (default:
        ``min(32, cpu_count * 2)``; each thread is mostly blocked on
        kernels that release the GIL or on executor IPC).
    allow_shutdown:
        Whether the wire ``shutdown`` op is honored (the CLI default) or
        answered with an error (embedding servers may want the latter).
    rulesets:
        ``{name: path}`` of *named* hot-reloadable rulesets, compiled at
        :meth:`start` and swapped atomically by the ``reload`` op.
        Requests reference them with a ``"ruleset": name`` header field
        instead of shipping ``rules``.
    worker_index, board:
        Pre-fork plumbing (DESIGN.md §3.12): the worker's slot index on
        the cross-worker :class:`~repro.service.metrics.MetricsBoard`.
        With a board attached, ``stats`` replies carry per-worker and
        aggregate metrics read straight from shared memory.
    executor_directory:
        A :class:`~repro.parallel.executor.SegmentDirectory` so this
        server's process executor shares published tables with sibling
        pre-fork workers instead of republishing per worker.
    on_shutdown_request, on_reload_request:
        Pre-fork hooks: called (on the event loop) when the wire asks to
        shut down / reload, so the worker can escalate to the master
        instead of acting alone.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_size: int = 64,
        executor: Optional[str] = None,
        num_workers: Optional[int] = None,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        handler_threads: Optional[int] = None,
        drain_timeout: float = 10.0,
        allow_shutdown: bool = True,
        rulesets: Optional[Dict[str, str]] = None,
        worker_index: Optional[int] = None,
        board: Optional[MetricsBoard] = None,
        executor_directory=None,
        on_shutdown_request: Optional[Callable[[], None]] = None,
        on_reload_request: Optional[Callable[[], None]] = None,
    ):
        if max_payload < 1:
            raise ServiceError("max_payload must be >= 1", kind="bad-request")
        if executor not in (None, "serial", "threads", "processes"):
            raise ServiceError(
                f"unknown executor {executor!r}", kind="bad-request"
            )
        self.host = host
        self._requested_port = port
        self.cache = ArtifactCache(cache_size)
        self.max_payload = max_payload
        self.executor_name = None if executor == "serial" else executor
        self.num_workers = num_workers
        self.drain_timeout = drain_timeout
        self.allow_shutdown = allow_shutdown
        if handler_threads is None:
            handler_threads = min(32, 2 * (os.cpu_count() or 1))
        self.handler_threads = max(1, handler_threads)
        self._threads: Optional[ThreadPoolExecutor] = None
        self._executor = None  # the shared ChunkExecutor (owned)
        self._executor_directory = executor_directory
        self._server: Optional[asyncio.AbstractServer] = None
        self._gate: Optional[asyncio.Semaphore] = None
        self._shutdown = None  # asyncio.Event, created on start
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._conn_tasks: set = set()
        self._started_at = 0.0
        self.worker_index = worker_index
        self.board = board
        slot = None
        if board is not None and worker_index is not None:
            slot = board.slot(worker_index)
        #: All request/error/byte counters and the plan distribution live
        #: here — one lock, because handler-pool threads note plans while
        #: the event loop counts requests (the PR 9 lost-update fix).
        self.metrics = ServiceMetrics(slot=slot)
        self._on_shutdown_request = on_shutdown_request
        self._on_reload_request = on_reload_request
        #: name -> NamedRuleset currently serving (swapped wholesale by
        #: reload; in-flight scans keep the object they already resolved).
        self.ruleset_paths = dict(rulesets or {})
        self._named: Dict[str, NamedRuleset] = {}
        self.ruleset_version = 0
        self._reload_lock = threading.Lock()
        self._version_event: Optional[asyncio.Event] = None

    @property
    def counters(self) -> Dict[str, int]:
        """Live counter view (the ``stats`` reply copies it under lock)."""
        return self.metrics.counters

    @property
    def plan_counts(self) -> Dict[str, int]:
        """Plan-summary -> scans run under it (``stats`` distribution)."""
        return self.metrics.plan_counts

    # -- lifecycle -------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    async def start(
        self, *, listen: bool = True, reuse_port: bool = False
    ) -> "MatchService":
        if self._started:
            raise ServiceError("server already started", kind="bad-request")
        from repro.parallel.executor import make_executor

        if self.executor_name is not None:
            self._executor = make_executor(
                self.executor_name, self.num_workers,
                directory=self._executor_directory,
            )
        self._threads = ThreadPoolExecutor(
            max_workers=self.handler_threads,
            thread_name_prefix="repro-serve",
        )
        self._gate = asyncio.Semaphore(self.handler_threads + 2)
        self._shutdown = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        if self.ruleset_paths:
            # Compile the named rulesets before accepting traffic: a
            # server that cannot serve its configured rules must fail at
            # start, not on the first request.
            await self._in_thread(self._apply_reload, None)
        if listen:
            # ``reuse_port=True`` is the pre-fork sharding mode: every
            # worker binds the same (host, port) and the kernel
            # load-balances accepted connections across them.
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port,
                limit=MAX_HEADER_BYTES, reuse_port=reuse_port or None,
            )
        self._started = True
        self._started_at = time.monotonic()
        return self

    def attach_socket(self, sock) -> None:
        """Adopt one already-accepted connection (thread-safe).

        This is the fd-passing fallback's entry point: where
        ``SO_REUSEPORT`` is unavailable, the pre-fork master accepts and
        ships connected sockets to workers, which hand them here.
        """
        if not self._started or self._loop is None:
            raise ServiceError("server not started", kind="bad-request")
        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(self._adopt(sock))
        )

    async def _adopt(self, sock) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES, loop=loop)
        protocol = asyncio.StreamReaderProtocol(reader, loop=loop)
        try:
            transport, _ = await loop.connect_accepted_socket(
                lambda: protocol, sock
            )
        except (OSError, ValueError):  # client already gone
            sock.close()
            return
        writer = asyncio.StreamWriter(transport, protocol, reader, loop)
        await self._handle_connection(reader, writer)

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, free pools."""
        if not self._started:
            return
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=self.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._server = None
        self._started = False
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`stop` or a wire ``shutdown`` request."""
        if not self._started:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    def run(self) -> None:
        """Blocking entry point (the ``repro serve`` main loop)."""
        asyncio.run(self.serve_until_shutdown())

    # -- connection loop -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.metrics.bump("connections")
        streams: Dict[int, _StreamSession] = {}
        next_stream = [1]
        # Shutdown must wake connections parked in readline() — a
        # graceful drain closes idle connections immediately instead of
        # letting each one run out the drain timeout.
        stop_wait = asyncio.ensure_future(self._shutdown.wait())
        try:
            while not self._shutdown.is_set():
                read = asyncio.ensure_future(reader.readline())
                await asyncio.wait(
                    {read, stop_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read.done():
                    read.cancel()
                    try:
                        await read
                    except (asyncio.CancelledError, Exception):
                        pass
                    break  # draining: this connection was idle
                try:
                    line = read.result()
                except (asyncio.LimitOverrunError, ValueError):
                    self.metrics.record_request(0.0, ok=False)
                    await self._reply(writer, error_reply(
                        "protocol",
                        f"header line exceeds {MAX_HEADER_BYTES} bytes",
                    ))
                    break  # cannot resync after an unterminated header
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break  # clean EOF
                if line == b"\n":
                    continue  # blank keep-alive line
                t0 = time.perf_counter()
                try:
                    reply = await self._serve_one(
                        reader, line, streams, next_stream
                    )
                except ProtocolError as e:
                    self.metrics.record_request(
                        time.perf_counter() - t0, ok=False
                    )
                    await self._reply(writer, error_reply(e.kind, str(e)))
                    break  # framing broken: the stream cannot be trusted
                except (ConnectionError, asyncio.IncompleteReadError):
                    break  # client went away mid-payload
                sent = await self._reply(writer, reply)
                # Latency covers parse -> handler -> reply flushed: what a
                # client experiences minus its own network stack.
                self.metrics.record_request(
                    time.perf_counter() - t0, ok=bool(reply.get("ok"))
                )
                self._publish_gauges()
                if not sent:
                    break
        finally:
            stop_wait.cancel()
            streams.clear()
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _publish_gauges(self) -> None:
        """Push cache/version gauges to the board slot (no-op unboarded)."""
        if self.metrics.slot is not None:
            self.metrics.set_gauge("cache_hits", self.cache.hits)
            self.metrics.set_gauge("cache_misses", self.cache.misses)
            self.metrics.set_gauge("ruleset_version", self.ruleset_version)

    async def _reply(self, writer: asyncio.StreamWriter, reply: Dict[str, Any]) -> bool:
        data = encode_message(reply)
        try:
            writer.write(data)
            await writer.drain()  # slow readers throttle themselves only
        except (ConnectionError, OSError):
            return False
        self.metrics.bump("bytes_out", len(data))
        return True

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        line: bytes,
        streams: Dict[int, _StreamSession],
        next_stream,
    ) -> Dict[str, Any]:
        header, declared = parse_header(line)
        reply = await self._dispatch(reader, header, declared, streams, next_stream)
        # Echo the client's correlation id so pipelined clients can match
        # replies to requests without trusting ordering alone.
        if "id" in header and "id" not in reply:
            reply["id"] = header["id"]
        return reply

    async def _dispatch(
        self,
        reader: asyncio.StreamReader,
        header: Dict[str, Any],
        declared: int,
        streams: Dict[int, "_StreamSession"],
        next_stream,
    ) -> Dict[str, Any]:
        payload: Optional[bytes] = None
        if declared >= 0:
            if declared > self.max_payload:
                await self._drain_payload(reader, declared)
                return error_reply(
                    "payload-too-large",
                    f"declared payload of {declared} bytes exceeds the "
                    f"server limit of {self.max_payload}",
                    limit=self.max_payload,
                )
            body = await reader.readexactly(declared + 1)
            if body[-1:] != b"\n":
                raise ProtocolError("payload not newline-terminated")
            payload = body[:-1]
            self.metrics.bump("bytes_in", declared)
        # requests/errors are counted once per message when the reply is
        # recorded (``metrics.record_request``) — never at handler sites,
        # so the two can't skew.
        op = header.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return error_reply(
                "bad-request",
                f"unknown op {op!r} (choose from "
                f"{', '.join(sorted(self._HANDLERS))})",
            )
        try:
            return await handler(self, header, payload, streams, next_stream)
        except ProtocolError:
            raise
        except ReproError as e:
            return error_reply(_error_kind(e), str(e))
        except Exception as e:
            # The contract is that a malformed request never drops the
            # connection: anything a handler failed to classify (e.g. a
            # non-hashable field where a scalar was expected) still gets
            # a structured reply instead of killing the connection task.
            return error_reply(
                "internal", f"{type(e).__name__}: {e}", op=str(op)
            )

    async def _drain_payload(self, reader: asyncio.StreamReader, declared: int) -> None:
        """Discard an oversized (but sanely declared) payload so the
        connection stays usable for the structured error reply."""
        if declared > DRAIN_CEILING:
            raise ProtocolError(
                f"declared payload of {declared} bytes exceeds the drain "
                f"ceiling of {DRAIN_CEILING}"
            )
        remaining = declared + 1  # payload plus its trailing newline
        while remaining > 0:
            chunk = await reader.read(min(remaining, 1 << 16))
            if not chunk:
                raise ProtocolError("connection closed mid-payload")
            remaining -= len(chunk)

    # -- request helpers -------------------------------------------------
    async def _in_thread(self, fn, *args):
        async with self._gate:
            return await asyncio.get_running_loop().run_in_executor(
                self._threads, fn, *args
            )

    async def _run_scan(self, task, data, peek, lookup, resolve, scan):
        """Run one scan op, on the loop when the hop buys nothing.

        ``peek()`` is the op's non-compiling cache lookup (``None``: a
        miss), ``lookup()`` its compiling ``(artifact, hit)`` lookup,
        ``resolve(artifact)`` its plan and ``scan(artifact, hit, plan)``
        the scan.  A hit whose payload is at most
        :data:`INLINE_MAX_BYTES` and whose automata are built
        (:func:`~repro.service.cache.scans_built`) scans right here,
        under :func:`~repro.automata.lazy.materialized_only` so that a
        lazy union walk meeting an unbuilt transition moves to the pool
        instead of building on the loop.  Everything else runs on the
        handler pool.
        """
        if len(data) <= INLINE_MAX_BYTES:
            value = peek()
            if value is not None:
                plan = resolve(value)
                if scans_built(value, task, len(data), plan):
                    try:
                        with materialized_only():
                            return scan(value, True, plan)
                    except NotMaterialized:
                        pass  # a lazy union transition is still unbuilt
                return await self._in_thread(scan, value, True, plan)

        def work():
            value, hit = lookup()
            return scan(value, hit, resolve(value))

        return await self._in_thread(work)

    @staticmethod
    def _need_payload(payload: Optional[bytes]) -> bytes:
        if payload is None:
            raise ServiceError(
                "this op needs a binary payload "
                "(set the 'payload' length field)",
                kind="bad-request",
            )
        return payload

    @staticmethod
    def _pattern_source(header: Dict[str, Any]) -> str:
        pattern = header.get("pattern")
        if not isinstance(pattern, str):
            raise ServiceError(
                "missing or non-string 'pattern' field", kind="bad-request"
            )
        return pattern

    def _pattern_of(self, header: Dict[str, Any]):
        return self.cache.get_pattern(
            self._pattern_source(header), bool(header.get("ignore_case"))
        )

    def _peek_pattern(self, header: Dict[str, Any]):
        return self.cache.lookup_pattern(
            self._pattern_source(header), bool(header.get("ignore_case"))
        )

    def _rule_sources(self, header: Dict[str, Any]):
        """Validated ``(sources, flags, mode)`` from a rules header —
        shared by the compiling ops and the compile-free ``analyze``."""
        rules = header.get("rules")
        if not isinstance(rules, list) or not rules:
            raise ServiceError(
                "missing or empty 'rules' list", kind="bad-request"
            )
        sources, flags = [], []
        base = bool(header.get("ignore_case"))
        for entry in rules:
            if isinstance(entry, str):
                sources.append(entry)
                flags.append(base)
            elif (
                isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str)
            ):
                sources.append(entry[0])
                flags.append(bool(entry[1]) or base)
            else:
                raise ServiceError(
                    f"rule must be a string or [pattern, ignore_case] "
                    f"pair, got {entry!r}",
                    kind="bad-request",
                )
        mode = header.get("mode", "search")
        if mode not in ("search", "fullmatch"):
            raise ServiceError(f"unknown mode {mode!r}", kind="bad-request")
        return sources, flags, mode

    def _ruleset_of(self, header: Dict[str, Any]):
        name = header.get("ruleset")
        if name is not None:
            if not isinstance(name, str):
                raise ServiceError(
                    f"'ruleset' must be a string name, got {name!r}",
                    kind="bad-request",
                )
            entry = self._named.get(name)
            if entry is None:
                loaded = ", ".join(sorted(self._named)) or "none loaded"
                raise ServiceError(
                    f"unknown ruleset {name!r} (loaded: {loaded})",
                    kind="bad-request",
                )
            # Named rulesets are pre-compiled at load/reload time; a
            # lookup is always a "hit" from the caller's perspective.
            return entry.mps, True
        sources, flags, mode = self._rule_sources(header)
        backend = self._backend_arg(header)
        return self.cache.get_ruleset(
            sources, flags, mode, backend, self._optimize_arg(header)
        )

    def _peek_ruleset(self, header: Dict[str, Any]):
        """:meth:`_ruleset_of` without compiling (``None``: not cached)."""
        if header.get("ruleset") is not None:
            return self._ruleset_of(header)[0]
        sources, flags, mode = self._rule_sources(header)
        backend = self._backend_arg(header)
        if self._optimize_arg(header):
            return None
        return self.cache.lookup_ruleset(sources, flags, mode, backend)

    def _optimize_arg(self, header: Dict[str, Any]) -> bool:
        """The request's ``optimize`` flag (§3.13 ruleset optimizer).

        Accepted by every ruleset-compiling op (``compile``,
        ``multiscan``, ``stream-open``); optimized entries use
        canonical-form-aware cache keys, so two spellings the rewriter
        maps to one form share a compiled object.
        """
        optimize = header.get("optimize", False)
        if not isinstance(optimize, bool):
            raise ServiceError(
                f"'optimize' must be a boolean, got {optimize!r}",
                kind="bad-request",
            )
        return optimize

    def _backend_arg(self, header: Dict[str, Any]) -> str:
        """The request's union-automaton backend (DESIGN.md §3.11).

        Defaults to ``"auto"``: the planner picks eager for small
        rulesets (identical results to the pre-backend service) and a
        non-exploding backend for large ones, so a ruleset that used to
        die with ``StateExplosionError`` now just compiles.
        """
        from repro.automata.backend import BACKEND_NAMES

        backend = header.get("backend", "auto")
        if backend not in BACKEND_NAMES:
            raise ServiceError(
                f"unknown backend {backend!r} "
                f"(choose from {', '.join(BACKEND_NAMES)})",
                kind="bad-request",
            )
        return backend

    def _knobs(
        self, header: Dict[str, Any]
    ) -> Tuple[Optional[int], Optional[str]]:
        """Explicitly-sent legacy knobs (``None`` when the field is absent,
        so a request-level plan keeps deciding them)."""
        chunks = header.get("chunks")
        kernel = header.get("kernel")
        if chunks is not None and (not isinstance(chunks, int) or chunks < 1):
            raise ServiceError(
                f"'chunks' must be a positive int, got {chunks!r}",
                kind="bad-request",
            )
        if kernel is not None and not isinstance(kernel, str):
            raise ServiceError(
                f"'kernel' must be a string, got {kernel!r}", kind="bad-request"
            )
        return chunks, kernel

    def _plan_arg(self, header: Dict[str, Any]):
        """The request's ``plan`` field: ``"auto"``, a plan object (a
        :meth:`~repro.planning.plan.Plan.to_dict` dump), or ``None`` /
        ``"off"`` for the op's legacy defaults."""
        plan = header.get("plan")
        if plan in (None, "off", False):
            return None
        if plan == "auto" or isinstance(plan, dict):
            return plan
        raise ServiceError(
            f"'plan' must be 'auto', 'off' or a plan object, got {plan!r}",
            kind="bad-request",
        )

    def _note_plan(self, plan: Plan) -> str:
        """Count one scan under ``plan`` and return its reply summary.

        Increments go through :class:`ServiceMetrics` (one lock): the
        bare ``dict.get() + 1`` this replaces was a lost-update race —
        handler-pool threads and the event loop both reach this path.
        """
        s = plan.summary()
        self.metrics.note_plan(s)
        return s

    # -- ops -------------------------------------------------------------
    async def _op_ping(self, header, payload, streams, next_stream):
        return {"ok": True, "pong": True}

    async def _op_stats(self, header, payload, streams, next_stream):
        from repro.planning.calibration import calibration_stats
        from repro.planning.planner import planner_stats

        cache_stats = self.cache.stats()
        reply: Dict[str, Any] = {
            "ok": True,
            "cache": cache_stats,
            "counters": dict(self.counters),
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "executor": self.executor_name or "none",
            "open_streams": len(streams),
            "max_payload": self.max_payload,
            "plans": {
                "distribution": dict(self.plan_counts),
                "calibration": calibration_stats(),
                **planner_stats(),
            },
            "metrics": self.metrics.snapshot(
                cache_stats["hits"], cache_stats["misses"]
            ),
            "worker": {"index": self.worker_index, "pid": os.getpid()},
        }
        if self._named or self.ruleset_paths:
            reply["rulesets"] = {
                "version": self.ruleset_version,
                "loaded": {
                    name: {"path": e.path, "rules": e.mps.num_rules}
                    for name, e in sorted(self._named.items())
                },
            }
        if self.board is not None:
            self._publish_gauges()
            snaps = self.board.snapshots()
            workers = []
            for snap in snaps:
                snap = dict(snap)
                snap.pop("_lat_values", None)
                workers.append(snap)
            reply["workers"] = workers
            reply["aggregate"] = self.board.aggregate(snaps)
        return reply

    async def _op_shutdown(self, header, payload, streams, next_stream):
        if not self.allow_shutdown:
            raise ServiceError(
                "shutdown over the wire is disabled", kind="shutdown"
            )
        self._shutdown.set()
        if self._on_shutdown_request is not None:
            # Pre-fork mode: tell the master so it drains *every* worker,
            # not just the one that happened to field this request.
            self._on_shutdown_request()
        return {"ok": True, "stopping": True}

    # -- hot ruleset reload (DESIGN.md §3.12) ----------------------------
    #
    # The master is the version authority, SyncMS-style: a worker that
    # receives the ``reload`` op asks the master, the master bumps the
    # version and broadcasts it, every worker re-reads its rule files
    # and atomically swaps the compiled sets. In-flight scans keep the
    # object they already resolved, so no connection ever observes a
    # half-swapped ruleset. Single-process servers skip the round trip
    # and apply locally.

    def _apply_reload(self, version: Optional[int]) -> int:
        """(Re)load every named ruleset from disk and swap atomically.

        Runs in a worker thread (compile is CPU-bound). ``version`` is
        the master-assigned version, or ``None`` to self-assign
        (single-process mode / initial load).
        """
        from repro.matching.multi import MultiPatternSet

        with self._reload_lock:
            fresh: Dict[str, NamedRuleset] = {}
            new_version = (
                version if version is not None else self.ruleset_version + 1
            )
            for name, path in sorted(self.ruleset_paths.items()):
                sources = load_rules_file(path)
                try:
                    mps = MultiPatternSet(sources, backend="auto")
                except ReproError as e:
                    raise ServiceError(
                        f"ruleset {name!r} ({path}): {e}", kind="compile"
                    ) from e
                fresh[name] = NamedRuleset(name, path, mps, new_version)
            self._named = fresh
            if new_version > self.ruleset_version:
                self.ruleset_version = new_version
            self.metrics.set_gauge("ruleset_version", self.ruleset_version)
            if self._loop is not None and self._version_event is not None:
                event = self._version_event
                self._loop.call_soon_threadsafe(event.set)
            return self.ruleset_version

    async def _wait_version_above(
        self, floor: int, timeout: float = RELOAD_PROPAGATION_TIMEOUT
    ) -> int:
        """Block until this worker's ruleset version exceeds ``floor``."""
        deadline = time.monotonic() + timeout
        while self.ruleset_version <= floor:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"reload did not propagate within {timeout:.0f}s "
                    f"(version still {self.ruleset_version})",
                    kind="engine",
                )
            event = asyncio.Event()
            self._version_event = event
            # Re-check after publishing the event: _apply_reload may have
            # finished between the version test and the event swap.
            if self.ruleset_version > floor:
                break
            try:
                await asyncio.wait_for(event.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                continue
        return self.ruleset_version

    async def _op_reload(self, header, payload, streams, next_stream):
        if not self.ruleset_paths:
            raise ServiceError(
                "no named rulesets configured (start the server with "
                "--ruleset NAME=PATH to enable hot reload)",
                kind="bad-request",
            )
        floor = self.ruleset_version
        if self._on_reload_request is not None:
            # Pre-fork mode: the master owns the version counter and
            # broadcasts the reload to every worker; wait for the new
            # version to land on this one before replying.
            self._on_reload_request()
            version = await self._wait_version_above(floor)
        else:
            version = await self._in_thread(self._apply_reload, None)
        return {
            "ok": True,
            "version": version,
            "rulesets": {
                name: {"path": e.path, "rules": e.mps.num_rules}
                for name, e in sorted(self._named.items())
            },
        }

    async def _op_compile(self, header, payload, streams, next_stream):
        stages = header.get("stages", ["sfa"])
        if not isinstance(stages, list):
            raise ServiceError("'stages' must be a list", kind="bad-request")
        _, kernel = self._knobs(header)
        backend = None
        if "rules" in header:
            value, hit = await self._in_thread(lambda: self._ruleset_of(header))
            backend = value.backend
            if backend != "eager":
                sizes = dict(value.sizes())  # lazy-safe: no union D-SFA
            elif "sfa" in stages:
                sizes = dict(value.sizes())
            else:
                sizes = {
                    "rules": value.num_rules,
                    "union_dfa": value.dfa.num_states,
                }
            analysis = await self._in_thread(lambda: _ruleset_analysis(value))
            task = "multi"
        else:
            value, hit = await self._in_thread(lambda: self._pattern_of(header))
            sizes = {"min_dfa": value.min_dfa.num_states}
            if "sfa" in stages:
                sizes["d_sfa"] = value.sfa.num_states
            analysis = await self._in_thread(lambda: _pattern_analysis(value))
            task = "fullmatch"
        built = await self._in_thread(
            lambda: self.cache.warm(value, stages, kernel or "python")
        )
        # What the planner would now run for a nominal 1 MiB scan of this
        # (warmed) artifact — the §3.10 counterpart of the analysis block.
        plan = await self._in_thread(
            lambda: resolve_plan(
                self._plan_arg(header) or "auto", task, 1 << 20, subject=value
            )
        )
        reply = {
            "ok": True, "cached": hit, "built": built, "sizes": sizes,
            "analysis": analysis, "plan": plan.to_dict(),
        }
        if backend is not None:
            reply["backend"] = backend
        opt_info = getattr(value, "optimize_info", None)
        if opt_info is not None:
            reply["optimize"] = opt_info.to_meta()
        return reply

    async def _op_analyze(self, header, payload, streams, next_stream):
        """Static §3.9 analysis of a pattern or ruleset: no compilation,
        no cache interaction, no payload — a pure function of sources."""
        from repro.analysis import analyze_pattern, analyze_ruleset

        optimize = self._optimize_arg(header)
        if "rules" in header:
            sources, flags, mode = self._rule_sources(header)

            def work():
                report = analyze_ruleset(
                    list(zip(sources, flags)), mode=mode, optimize=optimize
                )
                return {"ok": True, "report": report.to_dict()}
        else:
            pattern = header.get("pattern")
            if not isinstance(pattern, str):
                raise ServiceError(
                    "missing or non-string 'pattern' field", kind="bad-request"
                )
            fold = bool(header.get("ignore_case"))

            def work():
                report = analyze_pattern(
                    pattern, ignore_case=fold, optimize=optimize
                )
                return {"ok": True, "report": report.to_dict()}

        return await self._in_thread(work)

    async def _op_match(self, header, payload, streams, next_stream):
        data = self._need_payload(payload)
        mode = header.get("mode", "fullmatch")
        if mode not in ("fullmatch", "contains"):
            raise ServiceError(f"unknown mode {mode!r}", kind="bad-request")
        chunks, kernel = self._knobs(header)
        plan = self._plan_arg(header)
        task = "fullmatch" if mode == "fullmatch" else "contains"

        def resolve(m):
            if plan is None:
                c = 1 if chunks is None else chunks
                return resolve_plan(
                    None, task, len(data), subject=m,
                    engine="lockstep" if c > 1 else "dfa",
                    num_chunks=c, kernel=kernel or "python",
                )
            return resolve_plan(
                plan, task, len(data), subject=m,
                num_chunks=chunks, kernel=kernel,
            )

        def scan(m, hit, p):
            fn = m.fullmatch if mode == "fullmatch" else m.contains
            matched = fn(data, plan=p)
            return {
                "ok": True, "match": bool(matched), "cached": hit,
                "plan": self._note_plan(p),
            }

        return await self._run_scan(
            task, data, lambda: self._peek_pattern(header),
            lambda: self._pattern_of(header), resolve, scan,
        )

    async def _op_scan(self, header, payload, streams, next_stream):
        """Chunk-parallel containment scan through the shared executor."""
        data = self._need_payload(payload)
        mode = header.get("mode", "contains")
        if mode not in ("fullmatch", "contains"):
            raise ServiceError(f"unknown mode {mode!r}", kind="bad-request")
        chunks, kernel = self._knobs(header)
        plan = self._plan_arg(header)
        task = "fullmatch" if mode == "fullmatch" else "contains"

        def work():
            m, hit = self._pattern_of(header)
            if plan is None:
                c = max(2, 1 if chunks is None else chunks)
                p = resolve_plan(
                    None, task, len(data), subject=m, engine="sfa",
                    num_chunks=c, executor=self._executor,
                    kernel=kernel or "python",
                )
            else:
                p = resolve_plan(
                    plan, task, len(data), subject=m,
                    num_chunks=chunks, executor=self._executor,
                    kernel=kernel,
                )
            fn = m.fullmatch if mode == "fullmatch" else m.contains
            matched = fn(data, plan=p, executor=self._executor)
            return {
                "ok": True, "match": bool(matched), "cached": hit,
                "chunks": p.num_chunks,
                "executor": self.executor_name or "lockstep",
                "plan": self._note_plan(p),
            }

        return await self._in_thread(work)

    async def _op_finditer(self, header, payload, streams, next_stream):
        data = self._need_payload(payload)
        chunks, kernel = self._knobs(header)
        limit = header.get("limit")
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise ServiceError(
                f"'limit' must be a non-negative int, got {limit!r}",
                kind="bad-request",
            )

        plan = self._plan_arg(header)

        def resolve(m):
            if plan is None:
                return resolve_plan(
                    None, "spans", len(data), subject=m,
                    num_chunks=1 if chunks is None else chunks,
                    executor=self._executor, kernel=kernel or "python",
                )
            return resolve_plan(
                plan, "spans", len(data), subject=m,
                num_chunks=chunks, executor=self._executor, kernel=kernel,
            )

        def scan(m, hit, p):
            spans = m.span_engine().spans(
                data, plan=p, executor=self._executor, limit=limit,
            )
            return {
                "ok": True, "spans": [[s, e] for s, e in spans], "cached": hit,
                "plan": self._note_plan(p),
            }

        return await self._run_scan(
            "spans", data, lambda: self._peek_pattern(header),
            lambda: self._pattern_of(header), resolve, scan,
        )

    async def _op_multiscan(self, header, payload, streams, next_stream):
        data = self._need_payload(payload)
        chunks, kernel = self._knobs(header)

        plan = self._plan_arg(header)

        def resolve(mps):
            if plan is None:
                return resolve_plan(
                    None, "multi", len(data), subject=mps,
                    defaults=Plan(engine="lockstep"),
                    num_chunks=1 if chunks is None else chunks,
                    executor=self._executor, kernel=kernel or "python",
                )
            return resolve_plan(
                plan, "multi", len(data), subject=mps,
                num_chunks=chunks, executor=self._executor, kernel=kernel,
            )

        def scan(mps, hit, p):
            hits = mps.matches(data, plan=p, executor=self._executor)
            out = {
                "ok": True,
                "rules": sorted(int(r) for r in hits),
                "num_rules": mps.num_rules,
                "cached": hit,
                "backend": mps.backend,
                "plan": self._note_plan(p),
            }
            info = getattr(mps, "optimize_info", None)
            if info is not None:
                out["rules_compiled"] = info.num_kept
            return out

        return await self._run_scan(
            "multi", data, lambda: self._peek_ruleset(header),
            lambda: self._ruleset_of(header), resolve, scan,
        )

    async def _op_stream_open(self, header, payload, streams, next_stream):
        from repro.matching.stream import (
            StreamingMultiMatcher,
            StreamingMultiSpanMatcher,
            StreamingSpanMatcher,
        )

        if len(streams) >= MAX_STREAMS_PER_CONNECTION:
            raise ServiceError(
                f"connection already has {len(streams)} open streams",
                kind="limit",
            )
        kind = header.get("kind", "spans")
        chunks, kernel = self._knobs(header)
        plan = self._plan_arg(header)

        def work():
            if kind == "spans":
                m, _ = self._pattern_of(header)
                return _StreamSession(kind, StreamingSpanMatcher(m, plan=plan))
            if kind == "multi":
                mps, _ = self._ruleset_of(header)
                return _StreamSession(
                    kind,
                    StreamingMultiMatcher(
                        mps, num_chunks=chunks, kernel=kernel, plan=plan
                    ),
                )
            if kind == "multispans":
                mps, _ = self._ruleset_of(header)
                return _StreamSession(
                    kind, StreamingMultiSpanMatcher(mps, plan=plan)
                )
            raise ServiceError(
                f"unknown stream kind {kind!r} "
                "(choose from spans, multi, multispans)",
                kind="bad-request",
            )

        session = await self._in_thread(work)
        sid = next_stream[0]
        next_stream[0] += 1
        streams[sid] = session
        return {"ok": True, "stream": sid, "kind": kind}

    def _session(self, header, streams) -> Tuple[int, _StreamSession]:
        sid = header.get("stream")
        try:
            session = streams.get(sid)
        except TypeError:  # unhashable id (e.g. a list) is just a bad request
            session = None
        if session is None:
            raise ServiceError(
                f"no open stream {sid!r} on this connection",
                kind="bad-request",
            )
        return sid, session

    async def _op_stream_feed(self, header, payload, streams, next_stream):
        data = self._need_payload(payload)
        _, session = self._session(header, streams)
        out = await self._in_thread(session.feed, data)
        out["ok"] = True
        return out

    async def _op_stream_finish(self, header, payload, streams, next_stream):
        sid, session = self._session(header, streams)
        out = await self._in_thread(session.finish)
        del streams[sid]
        out["ok"] = True
        out["bytes_fed"] = session.bytes_fed
        return out

    async def _op_stream_close(self, header, payload, streams, next_stream):
        sid, _ = self._session(header, streams)
        del streams[sid]
        return {"ok": True, "closed": sid}

    _HANDLERS = {
        "ping": _op_ping,
        "stats": _op_stats,
        "shutdown": _op_shutdown,
        "reload": _op_reload,
        "compile": _op_compile,
        "analyze": _op_analyze,
        "match": _op_match,
        "scan": _op_scan,
        "finditer": _op_finditer,
        "multiscan": _op_multiscan,
        "stream_open": _op_stream_open,
        "stream_feed": _op_stream_feed,
        "stream_finish": _op_stream_finish,
        "stream_close": _op_stream_close,
    }
