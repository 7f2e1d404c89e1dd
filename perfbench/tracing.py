"""Span recording around invscan's public functions, from outside the program.

A span is one call into a wrapped function: its name, start, end (both
``time.perf_counter``, which is the system monotonic clock and so
comparable across the benchmark's processes), the span that caused it,
and a trace id. The scan token is the trace id; it is set by the calls
that carry or return a token and inherited by child spans, so client and
server spans of one scan join on it. Spans stay in memory until the run
ends.

Per-component scans run on the engine's own thread pool, where the
calling job's span is not on the thread's stack; ``engine.scan_pvc``
spans are joined to their job through the inventory component object
that ``execute_job`` handed out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "error", "attrs")

    def __init__(self, span_id: int, parent: "Span | None", name: str) -> None:
        self.id = span_id
        self.parent = parent.id if parent else 0
        self.trace = parent.trace if parent else ""
        self.name = name
        self.start = self.end = 0.0
        self.error = ""
        self.attrs: dict = {}

    def as_row(self) -> list:
        return [self.id, self.parent, self.trace, self.name, self.start, self.end,
                self.error, self.attrs]


class Tracer:
    """Wraps module or class attributes so each call records a span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pvc_owner: dict[int, tuple[str, int]] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, span: Span, token) -> None:
        """Name the span's trace, and that of enclosing spans still unnamed."""
        if not token:
            return
        span.trace = str(token)
        for outer in self._stack():
            if not outer.trace:
                outer.trace = span.trace

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a recording wrapper.

        before(span, args) runs when the span opens; after(span, args,
        result) runs when the call returned normally.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else None, name)
            if before is not None:
                before(span, args)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.as_row() for s in self.spans]}, fh)

    # -- the two processes' wrapping plans -----------------------------

    def install_server(self) -> None:
        """Wrap the server process's layers: inventory, generation, db,
        engine, protocol and server."""
        from invscan import db, engine, server

        def job_before(span, args):
            job = args[0]
            self.set_trace(span, job.token)
            for pvc in job.inventory.pvcs:
                self._pvc_owner[id(pvc)] = (job.token, span.id)

        def job_after(span, args, report):
            span.attrs["components"] = len(report.results)
            span.attrs["errors"] = sum(1 for r in report.results if r.error is not None)
            for pvc in args[0].inventory.pvcs:
                self._pvc_owner.pop(id(pvc), None)

        def pvc_before(span, args):
            owner = self._pvc_owner.get(id(args[0]))
            if owner is not None:
                span.trace, span.parent = owner

        def fetch_after(span, args, result):
            msg_type, body = result
            span.attrs["type"] = msg_type.name
            if "reason" in body:
                span.attrs["reason"] = body["reason"]

        def enqueue_after(span, args, token):
            if token is None:
                span.attrs["reason"] = server.REJECT_BUSY
            self.set_trace(span, token)

        def verify_after(span, args, result):
            if not result[0]:
                span.attrs["reason"] = server.REJECT_FIREWALL

        self.wrap(server, "inventory_from_dict", "inventory.parse")
        self.wrap(server, "verify_request", "server.verify", after=verify_after)
        self.wrap(server.VulnServer, "handle_connection", "server.handle")
        self.wrap(server.VulnServer, "enqueue_job", "server.enqueue", after=enqueue_after)
        self.wrap(server.VulnServer, "fetch_result", "server.fetch_result",
                  before=lambda span, args: self.set_trace(span, args[1]), after=fetch_after)
        self.wrap(server, "execute_job", "engine.execute_job", before=job_before, after=job_after)
        self.wrap(server, "report_to_dict", "engine.report_to_dict")
        self.wrap(engine, "scan_pvc", "engine.scan_pvc", before=pvc_before)
        self.wrap(engine, "generate_cpes", "generation.generate",
                  after=lambda span, args, result: span.attrs.__setitem__("candidates", len(result)))
        self.wrap(db.DbSnapshot, "match_cpes_to_cves", "db.match")
        self.wrap(db.VulnDatabase, "cache_lookup", "db.cache_lookup",
                  after=lambda span, args, result: span.attrs.__setitem__("hit", result is not None))
        self.wrap(db.VulnDatabase, "cache_store", "db.cache_store")
        self._install_protocol(server)

    def install_client(self) -> None:
        """Wrap the client layer and the protocol calls it makes."""
        from invscan import client

        self.wrap(client, "run_scan", "client.submit",
                  after=lambda span, args, result: self.set_trace(span, result[1]))
        self.wrap(client, "poll_result", "client.poll",
                  before=lambda span, args: self.set_trace(span, args[1]))
        self._install_protocol(client)

    def _install_protocol(self, module) -> None:
        self.wrap(module, "seal_message", "protocol.seal")
        self.wrap(module, "open_message", "protocol.open")
        self.wrap(module, "encode_frame", "protocol.encode_frame",
                  after=lambda span, args, frame: span.attrs.__setitem__("bytes", len(frame)))
