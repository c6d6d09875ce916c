"""Chunk executors: run per-chunk scans serially, on threads, or on processes.

The paper's testbed runs Algorithm 5's chunk scans on pthreads.  Under
CPython the GIL serializes the scalar loops, so three backends coexist
(DESIGN.md §3):

* :class:`SerialExecutor` — the reference executor, one chunk after another.
* :class:`ThreadExecutor` — a shared thread pool; GIL-bound for the scalar
  kernels, but real parallelism on free-threaded builds and a faithful
  reproduction of the paper's pthread *structure*.
* :class:`ProcessExecutor` — true multicore execution via
  :mod:`multiprocessing`.  Transition tables are published **once** through
  :mod:`multiprocessing.shared_memory`; workers attach by name and rebuild a
  zero-copy :class:`numpy.ndarray` view, so per-chunk messages carry only a
  ``(kernel, segment name, span)`` descriptor — never the table.  The worker
  pool is persistent (warm) by default, with a ``fresh_workers`` cold mode
  mirroring the Fig. 10 thread-spawn overhead study, and falls back to
  serial execution where ``fork``/shared memory is unavailable.

All executors implement two entry points: the generic :meth:`~ChunkExecutor.map`
over chunk arrays, and the structured :meth:`~ChunkExecutor.scan` over
``(start, end)`` spans of one class array, which is what lets the process
backend avoid pickling closures (see :mod:`repro.parallel.scan`).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import secrets
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import MatchEngineError
from repro.parallel.scan import run_scan


T = TypeVar("T")

#: ``(name, shape, dtype string)`` — enough for a worker to rebuild a view.
ShmRef = Tuple[str, Tuple[int, ...], str]


class ChunkExecutor:
    """Interface: map a scan function over chunk arrays, preserving order."""

    name = "abstract"

    def map(self, fn: Callable[[np.ndarray], T], chunks: Sequence[np.ndarray]) -> List[T]:
        raise NotImplementedError

    def scan(
        self,
        kind: str,
        table: np.ndarray,
        initial: int,
        classes: np.ndarray,
        spans: Sequence[Tuple[int, int]],
        kernel: str = "python",
    ) -> List[Any]:
        """Run the named table-scan kernel over contiguous spans of ``classes``.

        ``kernel`` picks the scan shape (``"python"`` reference loop or the
        ``"vector"`` block-composed path; see :mod:`repro.parallel.scan`);
        every span starts from ``initial``.  Default implementation:
        delegate to :meth:`map` with in-process views (``classes[a:b]``
        never copies).  :class:`ProcessExecutor` overrides this with the
        shared-memory protocol.
        """
        return self.map(
            lambda span: run_scan(
                kind, table, initial, classes[span[0] : span[1]], kernel
            ),
            list(spans),
        )

    def close(self) -> None:
        """Release pool/shared-memory resources (no-op for stateless executors)."""

    def __enter__(self) -> "ChunkExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(ChunkExecutor):
    """Run chunk scans one after another (reference executor)."""

    name = "serial"

    def map(self, fn: Callable[[np.ndarray], T], chunks: Sequence[np.ndarray]) -> List[T]:
        return [fn(ch) for ch in chunks]


class ThreadExecutor(ChunkExecutor):
    """Run chunk scans on a shared thread pool.

    The pool is created once per executor and reused; creating threads per
    call is exactly the overhead Fig. 10 measures, so a ``fresh_threads``
    mode is provided for the overhead study.
    """

    name = "threads"

    def __init__(self, num_threads: int, fresh_threads: bool = False):
        if num_threads < 1:
            raise MatchEngineError("need at least one thread")
        self.num_threads = num_threads
        self.fresh_threads = fresh_threads
        self._pool = None if fresh_threads else ThreadPoolExecutor(max_workers=num_threads)

    def map(self, fn: Callable[[np.ndarray], T], chunks: Sequence[np.ndarray]) -> List[T]:
        if self.fresh_threads:
            with ThreadPoolExecutor(max_workers=self.num_threads) as pool:
                return list(pool.map(fn, chunks))
        return list(self._pool.map(fn, chunks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


# ---------------------------------------------------------------------------
# Cross-process segment directory (pre-fork cache sharing, DESIGN.md §3.12)
# ---------------------------------------------------------------------------


class SegmentDirectory:
    """Cross-process registry of published table segments.

    The pre-fork service master creates one directory before forking its
    workers; every worker's :class:`ProcessExecutor` consults it under a
    shared lock, so a transition table compiled by one worker is copied
    into shared memory exactly once and *attached* (never re-published)
    by the rest.  The mapping ``{content key -> ShmRef}`` itself lives in
    one fixed shared-memory segment as a length-prefixed pickle — no
    broker process, readable by any forked child.

    Ownership: a segment registered here belongs to the directory.
    Worker executors close their mappings but never unlink registered
    names; the master unlinks every registered segment (and the
    directory segment itself) via ``close(unlink_segments=True)`` at
    teardown.
    """

    #: Fixed size of the pickled-mapping segment.  128 entries of
    #: (sha1 hex, shape, dtype) tuples pickle to a few KiB; 64 KiB is
    #: room to spare, and :meth:`register` degrades to "caller keeps
    #: local ownership" rather than raising when full.
    BYTES = 1 << 16

    def __init__(self, max_entries: int = 128):
        import multiprocessing
        from multiprocessing import shared_memory

        self.max_entries = max_entries
        ctx = multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        self._lock = ctx.Lock()
        self._seg = shared_memory.SharedMemory(
            create=True, size=self.BYTES,
            name=f"repro_dir_{secrets.token_hex(8)}",
        )
        self._store({})

    @property
    def name(self) -> str:
        return self._seg.name

    def _store(self, table: Dict[Any, ShmRef]) -> bool:
        blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) + 8 > self.BYTES:
            return False
        buf = self._seg.buf
        buf[0:8] = len(blob).to_bytes(8, "big")
        buf[8:8 + len(blob)] = blob
        return True

    def _load(self) -> Dict[Any, ShmRef]:
        buf = self._seg.buf
        n = int.from_bytes(bytes(buf[0:8]), "big")
        if n == 0:
            return {}
        return pickle.loads(bytes(buf[8:8 + n]))

    def lookup(self, key) -> Optional[ShmRef]:
        """The registered ref for ``key``, or None."""
        with self._lock:
            return self._load().get(key)

    def register(self, key, ref: ShmRef) -> Tuple[ShmRef, bool]:
        """Record ``ref`` under ``key``; first writer wins.

        Returns ``(winning ref, directory_owns)``.  When another process
        registered first, the caller gets *its* ref back and should
        discard the duplicate segment it just made.  ``directory_owns``
        is False when the directory is full — the caller then keeps
        local ownership (unlink-at-close) as if unshared.
        """
        with self._lock:
            table = self._load()
            cur = table.get(key)
            if cur is not None:
                return cur, True
            if len(table) >= self.max_entries:
                return ref, False
            table[key] = ref
            if not self._store(table):
                return ref, False
            return ref, True

    def registered_names(self) -> List[str]:
        with self._lock:
            return [ref[0] for ref in self._load().values()]

    def close(self, unlink_segments: bool = False) -> None:
        from multiprocessing import shared_memory

        if unlink_segments:
            for name in self.registered_names():
                try:
                    seg = shared_memory.SharedMemory(name=name)
                    seg.close()
                    seg.unlink()
                except FileNotFoundError:
                    pass
                except OSError:  # pragma: no cover
                    pass
        try:
            self._seg.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
        if unlink_segments:
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


# ---------------------------------------------------------------------------
# Process backend
# ---------------------------------------------------------------------------

# Worker-side cache of long-lived (table) segments: name -> (segment, view).
# Bounded (oldest evicted first); the publisher unlinks the name at close(),
# which on POSIX leaves existing mappings valid.
_WORKER_TABLES: Dict[str, Tuple[Any, np.ndarray]] = {}
_WORKER_TABLE_LIMIT = 32

# Set by the pool initializer: True when this worker shares the publisher's
# resource tracker (fork), False when it runs its own (spawn/forkserver).
_TRACKER_INHERITED = True


def _worker_init() -> None:
    global _TRACKER_INHERITED
    try:
        from multiprocessing import resource_tracker

        _TRACKER_INHERITED = (
            getattr(resource_tracker._resource_tracker, "_fd", None) is not None
        )
    except Exception:  # pragma: no cover
        _TRACKER_INHERITED = True


def _untrack(seg) -> None:
    """Undo the resource tracker's attach-side registration.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the segment with
    the resource tracker even when merely attaching.  Harmless when the
    tracker is shared with the publisher (fork: registration is idempotent
    and the publisher unregisters on unlink), but a worker with its *own*
    tracker (spawn) would "clean up" segments it does not own at exit — so
    only then do we unregister the attach.
    """
    if _TRACKER_INHERITED:
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


def _attach_view(ref: ShmRef):
    from multiprocessing import shared_memory

    name, shape, dtype = ref
    seg = shared_memory.SharedMemory(name=name)
    _untrack(seg)
    return seg, np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)


def _attach_table(ref: ShmRef) -> np.ndarray:
    name = ref[0]
    hit = _WORKER_TABLES.get(name)
    if hit is not None:
        return hit[1]
    while len(_WORKER_TABLES) >= _WORKER_TABLE_LIMIT:
        # FIFO eviction: unmap the oldest table (re-attached on next use).
        old_seg, old_view = _WORKER_TABLES.pop(next(iter(_WORKER_TABLES)))
        del old_view
        try:
            old_seg.close()
        except Exception:  # pragma: no cover
            pass
    seg, view = _attach_view(ref)
    _WORKER_TABLES[name] = (seg, view)
    return view


def _scan_shared_task(task) -> Any:
    """Worker entry point: one chunk scan against shared-memory views."""
    kind, table_ref, initial, classes_ref, a, b, kernel = task
    table = _attach_table(table_ref)
    seg, classes = _attach_view(classes_ref)
    try:
        out = run_scan(kind, table, initial, classes[a:b], kernel)
        if isinstance(out, np.ndarray):
            out = np.array(out, copy=True)  # detach from the segment buffer
    finally:
        del classes
        try:
            seg.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
    return out


class ProcessExecutor(ChunkExecutor):
    """Run chunk scans on a persistent :mod:`multiprocessing` worker pool.

    This is the paper's pthread setup made real under CPython: each chunk
    scan runs in its own process, so the scalar Algorithm-5 loop uses one
    core per chunk instead of time-slicing one GIL.

    Transition tables are content-addressed and published to shared memory
    at most once per table; the class array of each :meth:`scan` call is
    published for the duration of the call and unlinked immediately after.
    Workers receive only ``(kind, table ref, initial, classes ref, a, b)``.

    ``fresh_workers=True`` builds (and tears down) the pool on every call —
    the cold mode of the Fig. 10 overhead study.  If process pools or shared
    memory cannot be set up on this platform, the executor degrades to
    serial in-process execution and records why in :attr:`fallback_reason`.
    """

    name = "processes"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        fresh_workers: bool = False,
        start_method: Optional[str] = None,
        directory: Optional[SegmentDirectory] = None,
    ):
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise MatchEngineError("need at least one worker")
        self.num_workers = num_workers
        self.fresh_workers = fresh_workers
        #: Optional cross-process SegmentDirectory: pre-fork service
        #: workers share one, so equal tables are published once across
        #: the whole worker fleet, not once per process.
        self._directory = directory
        #: Segment names owned by the directory, not this executor —
        #: closed locally but never unlinked here.
        self._directory_names: set = set()
        # One executor may be shared by many caller threads (the match
        # service dispatches handler threads onto a single warm pool), so
        # publication bookkeeping and pool creation are serialized; the
        # pool's own map() is thread-safe and runs outside the lock.
        self._lock = threading.Lock()
        self._pool = None
        self._ctx = None
        self._published: Dict[Tuple[str, Tuple[int, ...], str], Any] = {}
        self._refs: Dict[Tuple[str, Tuple[int, ...], str], ShmRef] = {}
        # id() fast path over the content hash: (weakref, ShmRef, content key)
        self._id_refs: Dict[int, Tuple[Any, ShmRef, Any]] = {}
        self.max_tables = 32  # FIFO-evict published tables beyond this
        self.fallback_reason: Optional[str] = None
        self._probe(start_method)

    # -- availability ---------------------------------------------------
    def _probe(self, start_method: Optional[str]) -> None:
        """Pick a start method and prove shared memory works, or record why not."""
        try:
            import multiprocessing
            from multiprocessing import shared_memory

            if start_method is None:
                methods = multiprocessing.get_all_start_methods()
                start_method = "fork" if "fork" in methods else methods[0]
            self._ctx = multiprocessing.get_context(start_method)
            seg = shared_memory.SharedMemory(create=True, size=8)
            seg.close()
            seg.unlink()
        except Exception as e:  # pragma: no cover - platform dependent
            self._ctx = None
            self.fallback_reason = f"{type(e).__name__}: {e}"

    @property
    def available(self) -> bool:
        """True when scans actually run on worker processes."""
        return self.fallback_reason is None

    # -- shared-memory publication --------------------------------------
    @staticmethod
    def _make_segment(arr: np.ndarray) -> Tuple[Any, ShmRef]:
        """Allocate a fresh shared-memory segment holding a copy of ``arr``."""
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes), name=f"repro_{secrets.token_hex(8)}"
        )
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        view[...] = arr
        del view
        return seg, (seg.name, arr.shape, arr.dtype.str)

    def _publish(self, arr: np.ndarray, transient: bool) -> Tuple[Any, ShmRef]:
        if transient:
            # The per-call class array touches no shared bookkeeping, so
            # its (potentially multi-MB) copy runs without the lock —
            # concurrent handler threads sharing one executor publish
            # their payloads in parallel.
            return self._make_segment(np.ascontiguousarray(arr))
        with self._lock:
            return self._publish_locked(arr)

    def _publish_locked(self, arr: np.ndarray) -> Tuple[Any, ShmRef]:
        source = arr
        arr = np.ascontiguousarray(arr)
        # id() fast path: the same table object (the usual case — an SFA
        # held by a CompiledPattern) skips the content hash entirely.
        hit = self._id_refs.get(id(source))
        if hit is not None and hit[0]() is source:
            seg = self._published.get(hit[2])
            if seg is not None:  # may have been FIFO-evicted
                return seg, hit[1]
        # Content-address long-lived tables so each is published once
        # even when equal tables arrive as distinct objects.
        key = (
            hashlib.sha1(arr.data if arr.nbytes else b"").hexdigest(),
            arr.shape,
            arr.dtype.str,
        )
        ref = self._refs.get(key)
        if ref is not None:
            self._remember_id(source, ref, key)
            return self._published[key], ref
        if self._directory is not None:
            # Another pre-fork worker may have published this table
            # already — attach its segment instead of copying again.
            dref = self._directory.lookup(key)
            if dref is not None:
                seg = self._attach_segment(dref)
                if seg is not None:
                    self._directory_names.add(dref[0])
                    return self._admit(key, seg, dref, source)
        seg, ref = self._make_segment(arr)
        if self._directory is not None:
            win, dir_owns = self._directory.register(key, ref)
            if win != ref:
                # Lost the publish race: discard our duplicate, attach
                # the winner's segment.
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                alt = self._attach_segment(win)
                if alt is not None:
                    seg, ref = alt, win
                    self._directory_names.add(ref[0])
                else:  # winner vanished mid-race; fall back to local
                    seg, ref = self._make_segment(arr)
            elif dir_owns:
                self._directory_names.add(ref[0])
        return self._admit(key, seg, ref, source)

    def _admit(self, key, seg, ref: ShmRef, source: np.ndarray):
        while len(self._published) >= self.max_tables:
            # FIFO eviction keeps a long-lived executor's /dev/shm
            # footprint bounded; an evicted table is republished (under
            # a new name) if it ever comes back.
            old_key = next(iter(self._published))
            old_seg = self._published.pop(old_key)
            self._refs.pop(old_key, None)
            self._release_segment(old_seg)
        self._published[key] = seg
        self._refs[key] = ref
        self._remember_id(source, ref, key)
        return seg, ref

    def _release_segment(self, seg) -> None:
        """Close a published segment; unlink only the ones we own."""
        name = seg.name
        seg.close()
        if name in self._directory_names:
            return  # the directory master unlinks at teardown
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    @staticmethod
    def _attach_segment(ref: ShmRef):
        from multiprocessing import shared_memory

        try:
            return shared_memory.SharedMemory(name=ref[0])
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            return None

    def _remember_id(self, source: np.ndarray, ref: ShmRef, key) -> None:
        # Freeze the table before trusting its identity: an id()-keyed hit
        # skips the content hash, so an in-place mutation after publish
        # would silently scan the stale shared-memory copy.  Read-only
        # arrays turn that into a loud ValueError at the mutation site;
        # arrays we cannot freeze are simply re-hashed on every call.
        try:
            source.flags.writeable = False
            wr = weakref.ref(source)
        except (ValueError, TypeError):
            return
        if len(self._id_refs) >= 4 * self.max_tables:
            self._id_refs.clear()  # tiny tuples; wholesale reset is fine
        self._id_refs[id(source)] = (wr, ref, key)

    def published_segment_names(self) -> List[str]:
        """Names of the live table segments (tests assert cleanup on these)."""
        return [seg.name for seg in self._published.values()]

    # -- execution -------------------------------------------------------
    def _get_pool(self):
        with self._lock:
            if self._pool is None:
                self._pool = self._ctx.Pool(
                    processes=self.num_workers, initializer=_worker_init
                )
            return self._pool

    @staticmethod
    def _identity_result(kind: str, table: np.ndarray, initial: int) -> Any:
        """Result of scanning an empty span: nothing moves."""
        if kind == "sfa":
            return int(initial)
        if kind == "transform":
            return np.arange(table.shape[0], dtype=np.int32)
        raise MatchEngineError(f"unknown scan kind {kind!r}")

    def scan(
        self,
        kind: str,
        table: np.ndarray,
        initial: int,
        classes: np.ndarray,
        spans: Sequence[Tuple[int, int]],
        kernel: str = "python",
    ) -> List[Any]:
        if not self.available:
            return super().scan(kind, table, initial, classes, spans, kernel)
        # Empty spans (p > n splits) are resolved to identity results here
        # rather than shipped — an empty chunk scan is pure IPC overhead.
        live = [(i, a, b) for i, (a, b) in enumerate(spans) if b > a]
        results = [
            self._identity_result(kind, table, initial) for _ in spans
        ]
        if not live:
            return results
        _, table_ref = self._publish(table, transient=False)
        cls_seg, cls_ref = self._publish(classes, transient=True)
        tasks = [
            (kind, table_ref, int(initial), cls_ref, a, b, kernel)
            for _, a, b in live
        ]
        try:
            if self.fresh_workers:
                with self._ctx.Pool(
                    processes=self.num_workers, initializer=_worker_init
                ) as pool:
                    out = pool.map(_scan_shared_task, tasks)
            else:
                out = self._get_pool().map(_scan_shared_task, tasks)
        except OSError as e:  # pragma: no cover - pool died (e.g. fork limit)
            self.fallback_reason = f"{type(e).__name__}: {e}"
            return super().scan(kind, table, initial, classes, spans, kernel)
        finally:
            cls_seg.close()
            try:
                cls_seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        for (i, _, _), res in zip(live, out):
            results[i] = res
        return results

    def map(self, fn: Callable[[np.ndarray], T], chunks: Sequence[np.ndarray]) -> List[T]:
        """Generic map; runs in-process when ``fn`` cannot cross processes.

        Closures over automata (the usual ``fn`` here) are not picklable, so
        this transparently degrades to serial; table scans should use
        :meth:`scan`, which never pickles the table.
        """
        if self.available:
            try:
                if self.fresh_workers:
                    with self._ctx.Pool(
                        processes=self.num_workers, initializer=_worker_init
                    ) as pool:
                        return pool.map(fn, list(chunks))
                return self._get_pool().map(fn, list(chunks))
            except (pickle.PicklingError, AttributeError, TypeError):
                pass
        return [fn(ch) for ch in chunks]

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (draining in-flight work) and unlink every
        published segment."""
        with self._lock:
            pool, self._pool = self._pool, None
            published = list(self._published.values())
            self._published.clear()
            self._refs.clear()
            self._id_refs.clear()
        if pool is not None:
            pool.close()
            pool.join()  # graceful drain: running chunk scans finish
        for seg in published:
            self._release_segment(seg)

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Factory + shared registry
# ---------------------------------------------------------------------------

EXECUTOR_NAMES = ("serial", "threads", "processes")


def make_executor(
    name: str,
    num_workers: Optional[int] = None,
    directory: Optional[SegmentDirectory] = None,
) -> ChunkExecutor:
    """Build a fresh executor by backend name (caller owns its lifetime).

    ``directory`` (process backend only) plugs the executor into a
    pre-fork :class:`SegmentDirectory` so table publications are shared
    across sibling worker processes.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "threads":
        return ThreadExecutor(num_workers or (os.cpu_count() or 1))
    if name == "processes":
        return ProcessExecutor(num_workers, directory=directory)
    raise MatchEngineError(
        f"unknown executor {name!r} (choose from {', '.join(EXECUTOR_NAMES)})"
    )


_SHARED: Dict[Tuple[str, Optional[int]], ChunkExecutor] = {}
_SHARED_LOCK = threading.Lock()


def get_shared_executor(name: str, num_workers: Optional[int] = None) -> ChunkExecutor:
    """Process-wide executor cache, so repeated ``fullmatch`` calls hit a
    warm pool instead of paying pool/shared-memory setup per call.

    Thread-safe (concurrent first calls build one executor, not two);
    cached executors are closed automatically at interpreter exit.
    """
    key = (name, num_workers)
    with _SHARED_LOCK:
        ex = _SHARED.get(key)
        if ex is None:
            ex = make_executor(name, num_workers)
            _SHARED[key] = ex
        return ex


def resolve_executor(
    executor, num_workers: Optional[int] = None
) -> Optional[ChunkExecutor]:
    """Normalize an ``executor=`` argument: None, backend name, or instance."""
    if executor is None:
        return None
    if isinstance(executor, str):
        return get_shared_executor(executor, num_workers)
    if isinstance(executor, ChunkExecutor):
        return executor
    raise MatchEngineError(f"not an executor: {executor!r}")


def caller_executor(executor) -> Optional[ChunkExecutor]:
    """Check an entry point's ``executor=`` argument: ``None`` or a
    caller-owned :class:`ChunkExecutor`.  A backend *name* belongs in a
    plan (``Plan(executor="processes")``)."""
    if executor is None or isinstance(executor, ChunkExecutor):
        return executor
    raise MatchEngineError(
        f"executor must be a ChunkExecutor instance, got {executor!r} "
        "(name a backend with Plan(executor=...))"
    )


@atexit.register
def _close_shared_executors() -> None:  # pragma: no cover - exit path
    for ex in _SHARED.values():
        try:
            ex.close()
        except Exception:
            pass
    _SHARED.clear()
