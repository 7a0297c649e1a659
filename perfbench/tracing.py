"""Spans and counters recorded around calls into the program's layers.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of the program's modules with timing wrappers,
in whichever process calls it (the server process and the load-generating
client process each install their own); the returned :class:`Patches`
puts the originals back.

Two kinds of wrapper exist:

* a **span** wrapper records one span per call: name, start, end, parent
  span, job ID, and the CPU time its thread spent inside it.  It is used
  where calls are coarse (a sort network, a batched boundary call, a frame
  encode);
* a **timer** wrapper is used for calls made once per event or per slot
  (``Trace.record``, scalar ``get``/``put``, scalar crypto and codec
  calls).  It records no span; its self time and call count are added to
  the nearest enclosing span, so the numbers still follow that span's
  timestamps and job.

Start and end are wall-clock (``time.perf_counter``, one clock for both
processes on one host).  Self time is measured in the calling thread's CPU
time (``time.thread_time``): the server runs joins, frame handling and the
event loop as threads under one interpreter lock, and wall-clock self time
would charge a layer for the time its thread waited for another thread.
The self time of a span is its CPU time minus its child spans' CPU time
minus the CPU time of the timer-wrapped calls directly under it
(:func:`span_self_times`); the latter is kept per layer in the span's
``inner`` table.  Summed over a span tree, the self times equal the root
span's CPU time — the identity the benchmark checks for
``service.execute``.

Spans are kept in memory and written out once, when the process ends.
"""

from __future__ import annotations

import gc
import itertools
import sys
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

clock = time.perf_counter
cpu_clock = time.thread_time

# A span record, as written out.
ID, NAME, START, END, PARENT, JOB, INNER, CPU = range(8)


class Tracer:
    """Per-process span store with lock-free per-thread frame stacks.

    A frame is ``[name, CPU start, child CPU seconds, span record or None,
    owner]`` where ``owner`` is the record of the nearest span at or above
    it: the record that timer-wrapped calls charge their time and units to.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[list[Any]] = []
        #: (wall start, wall seconds) of every garbage collection
        self.gc_pauses: list[tuple[float, float]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job: str = "") -> Iterator[list[Any]]:
        """Record one span around a block; yields its record."""
        stack = self._stack()
        frame = self._open(stack, name, job)
        try:
            yield frame[3]
        finally:
            self._close(stack, frame)

    def _open(self, stack: list[list[Any]], name: str, job: str) -> list[Any]:
        parent = stack[-1][4] if stack else None
        if not job and parent is not None:
            job = parent[JOB]
        record = [next(self._ids), name, clock(), 0.0,
                  parent[ID] if parent is not None else 0, job, None, 0.0]
        frame = [name, cpu_clock(), 0.0, record, record]
        stack.append(frame)
        return frame

    def _close(self, stack: list[list[Any]], frame: list[Any]) -> None:
        cpu = cpu_clock() - frame[1]
        record = frame[3]
        record[END] = clock()
        record[CPU] = cpu
        stack.pop()
        if stack:
            stack[-1][2] += cpu
        self._spans.append(record)

    def _charge(self, owner: list[Any] | None, layer: str, count: int,
                seconds: float) -> None:
        if owner is None:
            # No enclosing span: promote the charge to a zero-length span
            # so it is still counted and still falls in a time window.
            now = clock()
            owner = [next(self._ids), layer, now, now, 0, "", None, seconds]
            self._spans.append(owner)
        inner = owner[INNER]
        if inner is None:
            inner = owner[INNER] = {}
        key = "#" + layer
        inner[key] = inner.get(key, 0) + count
        if seconds:
            inner[layer] = inner.get(layer, 0.0) + seconds

    def wrap_span(self, name: str, func: Callable, *,
                  units: Callable[..., int] | None = None,
                  job: Callable[..., str] | None = None,
                  materialize: int | None = None) -> Callable:
        """Wrap ``func`` so every call records a span named ``name``.

        ``units(*args)`` gives the work units (rows, cells) of one call;
        they are charged only when the caller is not already inside the
        same layer, so nested calls within one layer are not counted twice.
        ``materialize`` names a positional argument that may be a one-shot
        iterator: it is turned into a list before ``units`` sees it.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if materialize is not None and len(args) > materialize:
                args = (*args[:materialize], list(args[materialize]),
                        *args[materialize + 1:])
            stack = tracer._stack()
            nested = bool(stack) and stack[-1][0] == name
            frame = tracer._open(stack, name,
                                 job(*args, **kwargs) if job else "")
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(stack, frame)
                if units is not None and not nested:
                    tracer._charge(frame[3], name, units(*args), 0.0)

        wrapper.__wrapped__ = func
        return wrapper

    def wrap_timer(self, name: str, func: Callable) -> Callable:
        """Wrap a per-event call: counted and timed, but no span recorded."""
        tracer = self
        key = "#" + name

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                top = stack[-1]
                nested = top[0] == name
                owner = top[4]
            else:
                nested = False
                owner = None
            frame = [name, cpu_clock(), 0.0, None, owner]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                cpu = cpu_clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += cpu
                if owner is None:
                    tracer._charge(None, name, 0 if nested else 1,
                                   cpu - frame[2])
                else:
                    inner = owner[INNER]
                    if inner is None:
                        inner = owner[INNER] = {}
                    if not nested:
                        inner[key] = inner.get(key, 0) + 1
                    inner[name] = inner.get(name, 0.0) + cpu - frame[2]

        wrapper.__wrapped__ = func
        return wrapper

    # -- interpreter pauses --------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        """Time each collection; charge it to the layer it interrupted as
        a ``runtime.gc`` child, so collections that walk the whole heap do
        not inflate the self time of whichever call happened to trigger
        them."""
        local = self._local
        if phase == "start":
            local.gc_started = (clock(), cpu_clock())
            return
        started = getattr(local, "gc_started", None)
        if started is None:
            return
        local.gc_started = None
        cpu = cpu_clock() - started[1]
        self.gc_pauses.append((started[0], clock() - started[0]))
        stack = self._stack()
        if stack:
            stack[-1][2] += cpu
            self._charge(stack[-1][4], "runtime.gc", 1, cpu)

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output --------------------------------------------------------------
    def spans(self) -> list[list[Any]]:
        """Every finished span (a copy)."""
        return list(self._spans)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def span_self_times(spans: list[list[Any]]) -> dict[int, float]:
    """Self time per span ID, in CPU seconds.

    A span's CPU time minus its child spans' CPU time minus the timed calls
    charged to it (their self times sit in its ``inner`` table under the
    layer name).  Children always ran on their parent's thread, nested in
    it, so their CPU times add without overlap.
    """
    below: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT]:
            below[span[PARENT]] += span[CPU]
    result: dict[int, float] = {}
    for span in spans:
        inner = span[INNER] or {}
        timed = sum(v for k, v in inner.items() if not k.startswith("#"))
        result[span[ID]] = span[CPU] - below.get(span[ID], 0.0) - timed
    return result


def subtree_ids(spans: list[list[Any]], roots: set[int]) -> set[int]:
    """IDs of ``roots`` and every span below them."""
    below: dict[int, list[int]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            below[span[PARENT]].append(span[ID])
    found: set[int] = set()
    queue = deque(roots)
    while queue:
        ident = queue.popleft()
        if ident in found:
            continue
        found.add(ident)
        queue.extend(below.get(ident, ()))
    return found


def layer_totals(spans: list[list[Any]], ids: set[int] | None = None
                 ) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self seconds and work units.

    Restricted to spans in ``ids`` when given.
    """
    selves = span_self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    units: dict[str, int] = defaultdict(int)
    for span in spans:
        if ids is not None and span[ID] not in ids:
            continue
        seconds[span[NAME]] += selves[span[ID]]
        for key, value in (span[INNER] or {}).items():
            if key.startswith("#"):
                units[key[1:]] += value
            else:
                seconds[key] += value
    return seconds, units


# ---------------------------------------------------------------------------
# installing wrappers into the program's modules
# ---------------------------------------------------------------------------

class Patches:
    """Replacements made by :func:`install`, so they can be undone."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def function(self, module: str, name: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere it is bound.

        Modules that imported the function by name hold their own binding,
        so every loaded module of the program is rebound, not just the one
        that defines it.
        """
        original = getattr(sys.modules[module], name)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
                self._undo.append(
                    lambda mod=mod: setattr(mod, name, original))

    def method(self, cls: type, name: str, wrap: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        setattr(cls, name, replacement)
        self._undo.append(lambda: setattr(cls, name, raw))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _arg_len(position: int) -> Callable[..., int]:
    def units(*args, **kwargs) -> int:
        return len(args[position]) if len(args) > position else 0
    return units


def install(tracer: Tracer, jobs: "JobBook | None" = None) -> Patches:
    """Wrap the program's layer boundaries; returns the undo handle.

    ``jobs`` (server side only) links each join's submit, execute and
    journal records, for queue wait and completion times.
    """
    import repro.core.service as service_mod
    import repro.crypto.provider as provider_mod
    import repro.hardware.coprocessor as coprocessor_mod
    import repro.hardware.counters as counters_mod
    import repro.hardware.events as events_mod
    import repro.net.client as client_mod
    import repro.net.journal as journal_mod
    import repro.net.wire  # noqa: F401  (patched by module name below)
    import repro.oblivious.expand  # noqa: F401
    import repro.oblivious.filterbuf  # noqa: F401
    import repro.oblivious.sort  # noqa: F401
    import repro.obs.metrics  # noqa: F401
    import repro.relational.batch as batch_mod
    import repro.relational.tuples as tuples_mod

    patches = Patches()
    span = tracer.wrap_span
    timer = tracer.wrap_timer

    # net: frame codec, page rendering, journal, client polling.
    for name in ("encode_frame", "decode_payload", "encode_relation",
                 "decode_relation"):
        patches.function("repro.net.wire", name,
                         lambda f: span("net.wire", f))
    patches.method(journal_mod.JobJournal, "append",
                   lambda f: span("net.journal_append",
                                  jobs.on_journal(f) if jobs else f,
                                  units=lambda *a: 1))
    patches.method(client_mod.RemoteJob, "status",
                   lambda f: span("net.status", f, units=lambda *a: 1))
    patches.method(client_mod.RemoteJob, "wait",
                   lambda f: span("net.wait", f))

    # service: upload encryption, ingest, dispatch, the join, delivery.
    patches.method(service_mod.Party, "encrypt_upload",
                   lambda f: span("service.upload_encrypt", f))
    patches.method(service_mod.JoinService, "ingest_upload",
                   lambda f: span("service.ingest", f,
                                  job=lambda self, owner, cid, *a, **k: cid))
    patches.method(service_mod.JoinService, "deliver",
                   lambda f: span("service.deliver", f,
                                  job=lambda self, r, p, cid, *a, **k: cid))
    if jobs is None:
        patches.method(service_mod.JoinService, "execute",
                       lambda f: span("service.execute", f))
    else:
        patches.method(service_mod.JoinService, "submit",
                       lambda f: span("service.submit", jobs.on_submit(f)))
        patches.method(service_mod.JoinService, "execute",
                       lambda f: jobs.on_execute(span(
                           "service.execute", f, job=jobs.execute_job)))
        patches.function("repro.obs.metrics", "instrument_coprocessor",
                         jobs.on_instrument)

    # oblivious: sort networks, expansion passes, decoy filter.
    patches.function("repro.oblivious.sort", "oblivious_sort_indices",
                     lambda f: span("oblivious.sort", f, units=lambda *a: 1))
    for name in ("oblivious_linear_pass", "oblivious_transform_copy",
                 "oblivious_zip_write"):
        patches.function("repro.oblivious.expand", name,
                         lambda f: span("oblivious.expand", f))
    for name in ("oblivious_filter", "emit_kept"):
        patches.function("repro.oblivious.filterbuf", name,
                         lambda f: span("oblivious.filter", f))

    # hardware: the trace ledger and the T/H boundary.
    patches.method(events_mod.Trace, "record",
                   lambda f: timer("hardware.trace_record", f))
    patches.method(events_mod.Trace, "fingerprint",
                   lambda f: span("hardware.trace_fingerprint", f))
    patches.method(counters_mod.TransferStats, "from_trace",
                   lambda f: span("hardware.transfer_stats", f))
    cop = coprocessor_mod.SecureCoprocessor
    patches.method(cop, "charge_boundary",
                   lambda f: span("hardware.charge_boundary", f))
    for name in ("get", "put", "put_append"):
        patches.method(cop, name, lambda f: timer("hardware.slot_io", f))
    for name in ("get_many", "put_many", "append_many", "get_range",
                 "put_range", "gather_slots", "scatter_slots"):
        patches.method(cop, name, lambda f: span("hardware.slot_io", f))

    # crypto: working-key OCB and the parties' session-key provider.
    for cls, layer in ((provider_mod.OcbProvider, "crypto.ocb"),
                       (provider_mod.FastProvider, "crypto.party")):
        for name in ("encrypt", "decrypt"):
            patches.method(cls, name, lambda f, layer=layer: timer(layer, f))
        for name in ("encrypt_many", "decrypt_many"):
            patches.method(cls, name, lambda f, layer=layer: span(
                layer, f, units=_arg_len(1), materialize=1))

    # relational: tuple and columnar codecs.
    for name in ("encode", "decode"):
        patches.method(tuples_mod.TupleCodec, name,
                       lambda f: timer("relational.codec", f))
    for name in ("encode_columns", "encode_rows", "columns_from_rows",
                 "decode_rows", "decode_unique"):
        patches.method(batch_mod.BatchCodec, name,
                       lambda f: span("relational.codec", f,
                                      units=_arg_len(1), materialize=1))
    patches.method(batch_mod.BatchCodec, "rows_from_columns",
                   lambda f: span("relational.codec", f,
                                  units=lambda self, columns, count: count))
    return patches


class JobBook:
    """Server-side join bookkeeping: submit → execute → journal job ID.

    ``JoinService.submit`` does not return the server's job ID, so the
    book links them through the thread that submits: the server appends
    the ``JobAccepted`` journal record on the same thread right after a
    successful submit.  Executions are matched to submissions in FIFO
    order per contract, the order the service's pool starts them in.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tags = itertools.count(1)
        self._pending: dict[str, deque] = defaultdict(deque)
        #: tag -> {"job": id, "submitted": t, "started": t, "finished": t,
        #: "counters": {...}}
        self.records: dict[int, dict[str, Any]] = {}
        self.rejections: list[float] = []

    def on_submit(self, func: Callable) -> Callable:
        book = self

        def submit(service, contract_id, *args, **kwargs):
            from repro.errors import ServiceSaturatedError

            with book._lock:
                tag = next(book._tags)
                entry = {"job": "", "submitted": clock()}
                book.records[tag] = entry
                book._pending[contract_id].append(tag)
            book._local.last_tag = tag
            try:
                return func(service, contract_id, *args, **kwargs)
            except Exception as exc:
                with book._lock:
                    book._pending[contract_id].remove(tag)
                    del book.records[tag]
                    if isinstance(exc, ServiceSaturatedError):
                        book.rejections.append(clock())
                book._local.last_tag = None
                raise

        return submit

    def execute_job(self, service, contract_id, *args, **kwargs) -> str:
        """Claim the oldest pending submission of this contract."""
        with self._lock:
            pending = self._pending.get(contract_id)
            tag = pending.popleft() if pending else None
        self._local.executing = tag
        if tag is None:
            return contract_id
        self.records[tag]["started"] = clock()
        return f"tag:{tag}"

    def on_execute(self, func: Callable) -> Callable:
        book = self

        def execute(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            finally:
                tag = getattr(book._local, "executing", None)
                if tag is not None:
                    book.records[tag]["finished"] = clock()
                book._local.executing = None

        return execute

    def on_journal(self, func: Callable) -> Callable:
        book = self

        def append(journal, record):
            if type(record).__name__ == "JobAccepted":
                tag = getattr(book._local, "last_tag", None)
                if tag is not None:
                    book.records[tag]["job"] = record.job_id
                    book._local.last_tag = None
            return func(journal, record)

        return append

    def resolve(self, spans: list[list[Any]]) -> None:
        """Replace the provisional ``tag:N`` job of execute spans by the
        server's job ID, once the journal has named it."""
        for span in spans:
            if span[JOB].startswith("tag:"):
                record = self.records.get(int(span[JOB][4:]))
                if record is not None and record["job"]:
                    span[JOB] = record["job"]

    def on_instrument(self, func: Callable) -> Callable:
        book = self

        def instrument(registry, coprocessor, **labels):
            tag = getattr(book._local, "executing", None)
            if tag is not None:
                book.records[tag]["counters"] = {
                    "decryptions": coprocessor.decryptions,
                    "encryptions": coprocessor.encryptions,
                    "cache_hits": coprocessor.cache_hits,
                    "batch_rows": getattr(coprocessor, "batch_rows", 0),
                }
            return func(registry, coprocessor, **labels)

        return instrument
