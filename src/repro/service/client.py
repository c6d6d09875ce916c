"""Blocking client for the match service (``repro client``).

A thin, dependency-free socket client speaking the §3.8 wire format.  One
:class:`ServiceClient` holds one TCP connection; requests are synchronous
(send → read one reply), which is the right shape for the CLI and for
load generators that each own a connection.  Structured error replies are
raised as :class:`~repro.errors.ServiceError` with the remote ``kind``;
pass ``check=False`` to :meth:`ServiceClient.request` to inspect them
instead.

>>> with ServiceClient(port=port) as c:          # doctest: +SKIP
...     c.match("(ab)*", b"abab")
True
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ServiceError
from repro.planning.plan import Plan
from repro.service.protocol import (
    DEFAULT_PORT,
    MAX_HEADER_BYTES,
    ProtocolError,
    encode_message,
    parse_header,
    raise_remote,
)

Rules = Sequence[Union[str, Tuple[str, bool], List]]

#: ``plan=`` argument of the scan ops: ``"auto"`` (the server's §3.10
#: cost model), a :class:`~repro.planning.plan.Plan`, or its dict form.
PlanField = Union[str, Plan, Dict[str, Any]]


def _with_plan(header: Dict[str, Any], plan: PlanField) -> Dict[str, Any]:
    """Attach ``plan`` in its wire shape (omitted for ``"auto"``, which a
    request without ``plan`` means)."""
    if isinstance(plan, Plan):
        plan = plan.to_dict()
    if plan != "auto":
        header["plan"] = plan
    return header


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.server.MatchService`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 30.0,
    ):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -------------------------------------------------------
    def request(
        self,
        header: Dict[str, Any],
        payload: Optional[bytes] = None,
        *,
        check: bool = True,
    ) -> Dict[str, Any]:
        """Send one request and read its reply.

        With ``check=True`` (default) a structured error reply raises
        :class:`~repro.errors.ServiceError`; otherwise the error reply is
        returned as-is for inspection.
        """
        try:
            self._sock.sendall(encode_message(header, payload))
        except OSError as e:
            # Surface a dead server as a ServiceError, not a raw pipe
            # error: the CLI maps BrokenPipeError to a *quiet* SIGPIPE
            # exit (downstream reader hung up), which must never mask a
            # service outage.  OSError covers the whole mid-drain family
            # (ECONNRESET, EPIPE, EBADF after a local close, timeouts).
            raise ServiceError(
                f"server closed the connection: {e}", kind="protocol"
            ) from None
        reply, declared = self._read_message()
        if declared >= 0:
            # No current op returns binary replies; drain for forward
            # compatibility with future payload-bearing responses.
            reply["payload_bytes"] = self._read_exact(declared + 1)[:-1]
        if check and not reply.get("ok"):
            raise_remote(reply)
        return reply

    def send_raw(self, data: bytes) -> None:
        """Ship raw bytes (malformed-input tests; not for normal use)."""
        self._sock.sendall(data)

    def read_reply(self) -> Dict[str, Any]:
        """Read one reply header without having sent via :meth:`request`."""
        reply, declared = self._read_message()
        if declared >= 0:
            reply["payload_bytes"] = self._read_exact(declared + 1)[:-1]
        return reply

    def _read_message(self) -> Tuple[Dict[str, Any], int]:
        try:
            line = self._rfile.readline(MAX_HEADER_BYTES + 1)
        except OSError as e:
            # A hard hangup (RST), a timeout, or any other socket-level
            # failure must surface the same way a clean EOF does: the
            # contract is "dead server -> ServiceError", never a raw
            # socket exception — a client caught mid-drain by a shutdown
            # gets a clean exit-2 error, not a traceback.
            raise ServiceError(
                f"server closed the connection: {e}", kind="protocol"
            ) from None
        if not line:
            raise ServiceError("server closed the connection", kind="protocol")
        if not line.endswith(b"\n"):
            raise ProtocolError("reply header truncated or oversized")
        return parse_header(line)

    def _read_exact(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            try:
                chunk = self._rfile.read(n - len(out))
            except OSError as e:
                raise ServiceError(
                    f"server closed the connection mid-payload: {e}",
                    kind="protocol",
                ) from None
            if not chunk:
                raise ServiceError(
                    "server closed the connection mid-payload", kind="protocol"
                )
            out += chunk
        return bytes(out)

    # -- ops -------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})

    def reload(self) -> Dict[str, Any]:
        """Hot-reload the server's named rulesets from their files.

        Returns ``{"version": v, "rulesets": {name: {...}}}``; in
        pre-fork mode the reply arrives only after every worker has the
        new version.
        """
        return self.request({"op": "reload"})

    def compile(
        self,
        pattern: Optional[str] = None,
        *,
        rules: Optional[Rules] = None,
        ignore_case: bool = False,
        stages: Sequence[str] = ("sfa",),
        mode: str = "search",
        backend: Optional[str] = None,
    ) -> Dict[str, Any]:
        header: Dict[str, Any] = {
            "op": "compile", "ignore_case": ignore_case,
            "stages": list(stages),
        }
        if rules is not None:
            header["rules"] = [
                r if isinstance(r, str) else [r[0], bool(r[1])] for r in rules
            ]
            header["mode"] = mode
            if backend is not None:
                header["backend"] = backend
        elif pattern is not None:
            header["pattern"] = pattern
        else:
            raise ServiceError(
                "compile needs a pattern or rules", kind="bad-request"
            )
        return self.request(header)

    def analyze(
        self,
        pattern: Optional[str] = None,
        *,
        rules: Optional[Rules] = None,
        ignore_case: bool = False,
        mode: str = "search",
    ) -> Dict[str, Any]:
        """Server-side static analysis (§3.9); returns the report dict
        (the same schema ``repro analyze --json`` prints)."""
        header: Dict[str, Any] = {"op": "analyze", "ignore_case": ignore_case}
        if rules is not None:
            header["rules"] = [
                r if isinstance(r, str) else [r[0], bool(r[1])] for r in rules
            ]
            header["mode"] = mode
        elif pattern is not None:
            header["pattern"] = pattern
        else:
            raise ServiceError(
                "analyze needs a pattern or rules", kind="bad-request"
            )
        return self.request(header)["report"]

    def match(
        self,
        pattern: str,
        data: bytes,
        *,
        mode: str = "fullmatch",
        ignore_case: bool = False,
        plan: PlanField = "auto",
    ) -> bool:
        """Server-side ``fullmatch`` (or ``contains`` with
        ``mode="contains"``); a chunked ``plan`` runs on the server's own
        executor."""
        header = {
            "op": "match", "pattern": pattern, "mode": mode,
            "ignore_case": ignore_case,
        }
        return bool(self.request(_with_plan(header, plan), data)["match"])

    def finditer(
        self,
        pattern: str,
        data: bytes,
        *,
        ignore_case: bool = False,
        plan: PlanField = "auto",
        limit: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        header = _with_plan(
            {"op": "finditer", "pattern": pattern, "ignore_case": ignore_case},
            plan,
        )
        if limit is not None:
            header["limit"] = limit
        reply = self.request(header, data)
        return [(s, e) for s, e in reply["spans"]]

    def multiscan(
        self,
        rules: Optional[Rules] = None,
        data: bytes = b"",
        *,
        ruleset: Optional[str] = None,
        mode: str = "search",
        ignore_case: bool = False,
        plan: PlanField = "auto",
        backend: Optional[str] = None,
    ) -> List[int]:
        """Matched rule indices — from inline ``rules`` or a server-side
        named ``ruleset`` (hot-reloadable, see :meth:`reload`)."""
        header: Dict[str, Any] = {
            "op": "multiscan", "mode": mode, "ignore_case": ignore_case,
        }
        if ruleset is not None:
            header["ruleset"] = ruleset
        elif rules is not None:
            header["rules"] = [
                r if isinstance(r, str) else [r[0], bool(r[1])]
                for r in rules
            ]
        else:
            raise ServiceError(
                "multiscan needs rules or a ruleset name",
                kind="bad-request",
            )
        if backend is not None:
            header["backend"] = backend
        reply = self.request(_with_plan(header, plan), data)
        return [int(r) for r in reply["rules"]]

    def open_stream(
        self,
        *,
        pattern: Optional[str] = None,
        rules: Optional[Rules] = None,
        kind: Optional[str] = None,
        ignore_case: bool = False,
        mode: str = "search",
        plan: PlanField = "auto",
        backend: Optional[str] = None,
    ) -> "ClientStream":
        """Open a stateful stream session; see :class:`ClientStream`."""
        if kind is None:
            kind = "spans" if pattern is not None else "multi"
        header = _with_plan(
            {"op": "stream_open", "kind": kind, "ignore_case": ignore_case},
            plan,
        )
        if pattern is not None:
            header["pattern"] = pattern
        if rules is not None:
            header["rules"] = [
                r if isinstance(r, str) else [r[0], bool(r[1])] for r in rules
            ]
            header["mode"] = mode
            if backend is not None:
                header["backend"] = backend
        reply = self.request(header)
        return ClientStream(self, int(reply["stream"]), kind)


class ClientStream:
    """Handle for one server-side stream session.

    ``feed`` returns what the block finalized — ``(start, end)`` spans for
    ``"spans"``, ``(rule, start, end)`` triples for ``"multispans"``,
    newly-matched rule indices for ``"multi"`` — and ``finish`` flushes
    the holdback and closes the session.
    """

    def __init__(self, client: ServiceClient, stream_id: int, kind: str):
        self.client = client
        self.stream_id = stream_id
        self.kind = kind
        self.closed = False

    def feed(self, block: bytes):
        reply = self.client.request(
            {"op": "stream_feed", "stream": self.stream_id}, block
        )
        return self._shape(reply)

    def finish(self):
        reply = self.client.request(
            {"op": "stream_finish", "stream": self.stream_id}
        )
        self.closed = True
        return self._shape(reply)

    def close(self) -> None:
        if not self.closed:
            self.client.request({"op": "stream_close", "stream": self.stream_id})
            self.closed = True

    def _shape(self, reply: Dict[str, Any]):
        if self.kind in ("spans", "multispans"):
            return [tuple(span) for span in reply["spans"]]
        return [int(r) for r in reply["rules"]]

    def __enter__(self) -> "ClientStream":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except ServiceError:  # pragma: no cover - already gone
            pass
