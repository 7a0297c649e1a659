"""The secure coprocessor T.

``T`` is the only trusted component (Section 3.3).  Everything it reads from
the host is decrypted and authenticated on entry; everything it writes is
encrypted under a fresh nonce on exit.  Every crossing of the T/H boundary is
recorded in a :class:`~repro.hardware.events.Trace` — the observable over
which the privacy definitions quantify and in which every cost formula is
stated.

Memory is the coprocessor's scarce resource (4 MB in an IBM 4758, 64 MB in an
IBM 4764).  The class enforces a *tuple-slot budget*: algorithms acquire slots
via :meth:`hold` or :meth:`buffer` and exceeding the budget raises
:class:`EnclaveMemoryError`.  This turns the paper's memory claims ("Algorithm
4 only requires a memory size of two") into machine-checked invariants.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.crypto.provider import CryptoProvider, decrypt_batch, encrypt_batch
from repro.errors import EnclaveMemoryError
from repro.hardware.events import GET, PUT, Trace
from repro.hardware.host import HostMemory
from repro.hardware.resilience import JournalEntry, ReplayCursor, RetryPolicy
from repro.hardware.timing import VirtualClock

#: Builds a fresh trace sink (the default materializes a :class:`Trace`; the
#: bounded-memory sinks live in :mod:`repro.obs.sinks`).
TraceFactory = Callable[[], "Trace"]


class EnclaveBuffer:
    """A bounded in-enclave list of plaintext tuples (e.g. Algorithm 5's store).

    Appending beyond ``capacity`` raises :class:`EnclaveMemoryError`; this is
    precisely the *blemish* trigger of Algorithm 6 (Section 5.3.3).
    """

    def __init__(self, coprocessor: "SecureCoprocessor", capacity: int) -> None:
        self._coprocessor = coprocessor
        self.capacity = capacity
        self._items: list[bytes] = []
        self._released = False

    def append(self, plaintext: bytes) -> None:
        if len(self._items) >= self.capacity:
            raise EnclaveMemoryError(
                f"enclave buffer overflow: capacity {self.capacity} exceeded"
            )
        self._items.append(plaintext)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._items)

    def __getitem__(self, index: int) -> bytes:
        return self._items[index]

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def drain(self) -> list[bytes]:
        """Remove and return all buffered tuples."""
        items, self._items = self._items, []
        return items

    def clear(self) -> None:
        self._items.clear()

    def release(self) -> None:
        """Return the reserved slots to the coprocessor's free pool."""
        if not self._released:
            self._coprocessor._release(self.capacity)
            self._released = True


class SecureCoprocessor:
    """One secure coprocessor attached to a host.

    Crypto fast path
    ----------------
    Every ``get`` models one decryption and every ``put`` one encryption —
    the quantities the paper's cost formulas charge, exposed as the
    ``decryptions``/``encryptions`` counters and as per-slot trace events.
    Physically, though, the dominant access pattern (oblivious-sort
    comparators re-reading slots they just rewrote; cartesian scans
    re-fetching the same input tuples) decrypts the *same ciphertext* over
    and over.  The slot cache short-circuits that: it remembers, per
    ``(region, index)``, the exact ciphertext T last wrote to (or read,
    decrypted and authenticated from) that slot together with its plaintext.
    A later ``get`` that receives those same bytes back skips the physical
    decrypt+authenticate — byte-equality with a ciphertext T itself produced
    or already authenticated *is* the authenticity check (nonces never repeat
    within a provider instance, so equal bytes imply the same message).  Any
    byte difference — a host-side move, a rewrite, tampering — misses the
    cache and takes the full decrypt+authenticate path, preserving
    Section 3.3.1's detect-and-terminate behaviour bit-for-bit.

    The cache changes nothing observable: traces, modeled counters,
    ``TransferStats`` and phase breakdowns are identical with it on or off
    (``tests/test_fastpath.py``).  The physical work actually performed is
    surfaced separately as ``physical_decryptions`` and ``cache_hits``.

    Fault tolerance
    ---------------
    The host is allowed to fail: a :class:`RetryPolicy` re-issues a host
    call that raised :class:`~repro.errors.TransientHostError`, bounded and
    with deterministic backoff on a simulated clock.  The retried request is
    the *identical* (op, region, index), so the declared access pattern is
    unchanged — only the count of physical attempts (``retries``) grows,
    and that count depends on the host's fault process, never on the data.
    :class:`~repro.errors.AuthenticationError` is raised by the provider
    *after* the host bytes arrive and is never retried.

    For crash recovery, a coprocessor can carry a checkpoint store (sealed
    journal + host image committed every ``checkpoint_interval`` boundary
    ops, outside the trace) and, on resume, a :class:`ReplayCursor` that
    serves the journalled prefix back without touching host or crypto while
    still recording every trace event — so a recovered run's logical trace
    is bit-identical to an uninterrupted one (:mod:`repro.faults`).
    """

    def __init__(
        self,
        host: HostMemory,
        provider: CryptoProvider,
        memory_limit: int | None = None,
        name: str = "T0",
        trace_factory: TraceFactory | None = None,
        plaintext_cache: bool = True,
        retry: RetryPolicy | None = None,
        clock: VirtualClock | None = None,
        replay: ReplayCursor | None = None,
        checkpoint_store: Any | None = None,
        checkpoint_interval: int | None = None,
        batched_io: bool = True,
    ) -> None:
        self.host = host
        self.provider = provider
        self.memory_limit = memory_limit
        self.name = name
        self.trace_factory: TraceFactory = trace_factory or Trace
        self.trace = self.trace_factory()
        self._in_use = 0
        self.peak_in_use = 0
        #: Modeled crypto counts (one per boundary crossing), whatever the
        #: physical path did — the cost models and phase profiles read these.
        self.encryptions = 0
        self.decryptions = 0
        #: Physical crypto counts: decryptions actually executed and gets
        #: served from the slot cache (decryptions == physical + hits).
        self.physical_decryptions = 0
        self.cache_hits = 0
        self.cache_enabled = plaintext_cache
        self._cache: dict[tuple[str, int], tuple[bytes, bytes]] = {}
        #: Vectorized physical execution: number of batched boundary calls and
        #: total rows they moved.  Like ``physical_decryptions``/``cache_hits``
        #: these describe the physical path only — modeled counters and traces
        #: are identical whether batching is on or off.
        self.batched_io = batched_io
        self.batched_ops = 0
        self.batch_rows = 0
        self._batch_physical_pending = 0
        self._host_batch_safe: bool | None = None
        #: Fault tolerance: bounded transient-fault retry and, when recovery
        #: is wired up, the sealed checkpoint store and replay cursor.
        self.retry = retry
        self.clock = clock
        self._replay = replay
        self.checkpoint_store = checkpoint_store
        self.checkpoint_interval = checkpoint_interval
        self._journal: list[JournalEntry] = []
        #: Boundary operations completed (replayed + live) this run.
        self.ops_completed = 0
        self.retries = 0
        self.replayed_transfers = 0
        self.checkpoints_sealed = 0

    # -- fault-tolerant host access -------------------------------------------
    def _host_call(self, operation: Callable[[], Any]) -> Any:
        """One host storage call under the retry policy (if any)."""
        if self.retry is None:
            return operation()

        def bump() -> None:
            self.retries += 1

        return self.retry.call(operation, clock=self.clock, on_retry=bump)

    def _finish_op(self, entry: JournalEntry | None) -> None:
        """Count one completed boundary op; journal and seal checkpoints.

        ``entry`` is None for replayed operations — their journal records are
        already sealed on the host, so they are neither re-journalled nor do
        they trigger a new checkpoint commit.
        """
        self.ops_completed += 1
        if entry is None or self.checkpoint_store is None:
            return
        self._journal.append(entry)
        interval = self.checkpoint_interval
        if interval and self.ops_completed % interval == 0:
            self.checkpoint_store.commit(self.ops_completed, self._journal)
            self._journal = []
            self.checkpoints_sealed += 1

    @property
    def replaying(self) -> bool:
        """True while boundary ops are served from a recovery journal."""
        return self._replay is not None and self._replay.active

    # -- memory accounting ---------------------------------------------------
    def _reserve(self, slots: int) -> None:
        if slots < 0:
            raise EnclaveMemoryError("cannot reserve a negative number of slots")
        if self.memory_limit is not None and self._in_use + slots > self.memory_limit:
            raise EnclaveMemoryError(
                f"{self.name}: requested {slots} slots with {self._in_use} in use "
                f"exceeds the limit of {self.memory_limit}"
            )
        self._in_use += slots
        self.peak_in_use = max(self.peak_in_use, self._in_use)

    def _release(self, slots: int) -> None:
        self._in_use -= slots
        if self._in_use < 0:
            raise EnclaveMemoryError("released more slots than were reserved")

    @property
    def slots_in_use(self) -> int:
        return self._in_use

    @contextmanager
    def hold(self, slots: int):
        """Reserve ``slots`` tuple slots for the duration of a with-block."""
        self._reserve(slots)
        try:
            yield
        finally:
            self._release(slots)

    def buffer(self, capacity: int) -> EnclaveBuffer:
        """Reserve a bounded result buffer (caller must release())."""
        self._reserve(capacity)
        return EnclaveBuffer(self, capacity)

    # -- the traced T/H boundary ----------------------------------------------
    def get(self, region: str, index: int) -> bytes:
        """Read one host slot into the enclave: decrypt + authenticate.

        Raises :class:`~repro.errors.AuthenticationError` when the host (or a
        malicious adversary controlling it) tampered with the slot —
        Section 3.3.1's detect-and-terminate behaviour.  When the slot cache
        holds this exact ciphertext, byte-equality replaces the physical
        decrypt (see the class docstring); a modeled decryption is charged
        either way.
        """
        if self.replaying:
            journalled = self._replay.take(GET, region, index)
            self.trace.record(GET, region, index)
            self.decryptions += 1
            self.replayed_transfers += 1
            self._finish_op(None)
            return journalled.payload
        ciphertext = self._host_call(lambda: self.host.read_slot(region, index))
        self.trace.record(GET, region, index)
        self.decryptions += 1
        if self.cache_enabled:
            entry = self._cache.get((region, index))
            if entry is not None and entry[0] == ciphertext:
                self.cache_hits += 1
                self._finish_op(JournalEntry(GET, region, index, entry[1])
                                if self.checkpoint_store is not None else None)
                return entry[1]
            plaintext = self.provider.decrypt(ciphertext)
            self.physical_decryptions += 1
            self._cache[(region, index)] = (ciphertext, plaintext)
            self._finish_op(JournalEntry(GET, region, index, plaintext)
                            if self.checkpoint_store is not None else None)
            return plaintext
        self.physical_decryptions += 1
        plaintext = self.provider.decrypt(ciphertext)
        self._finish_op(JournalEntry(GET, region, index, plaintext)
                        if self.checkpoint_store is not None else None)
        return plaintext

    def put(self, region: str, index: int, plaintext: bytes) -> None:
        """Write one plaintext out to a host slot, encrypting under a fresh nonce."""
        if self.replaying:
            self._replay.take(PUT, region, index)
            self.trace.record(PUT, region, index)
            self.encryptions += 1
            self.replayed_transfers += 1
            self._finish_op(None)
            return
        ciphertext = self.provider.encrypt(plaintext)
        self._host_call(lambda: self.host.write_slot(region, index, ciphertext))
        self.trace.record(PUT, region, index)
        self.encryptions += 1
        if self.cache_enabled:
            self._cache[(region, index)] = (ciphertext, plaintext)
        self._finish_op(JournalEntry(PUT, region, index)
                        if self.checkpoint_store is not None else None)

    def put_append(self, region: str, plaintext: bytes) -> int:
        """Append an encrypted tuple to a growable host region."""
        if self.replaying:
            journalled = self._replay.take(PUT, region, None)
            self.trace.record(PUT, region, journalled.index)
            self.encryptions += 1
            self.replayed_transfers += 1
            self._finish_op(None)
            return journalled.index
        ciphertext = self.provider.encrypt(plaintext)
        index = self._host_call(lambda: self.host.append_slot(region, ciphertext))
        self.trace.record(PUT, region, index)
        self.encryptions += 1
        if self.cache_enabled:
            self._cache[(region, index)] = (ciphertext, plaintext)
        self._finish_op(JournalEntry(PUT, region, index)
                        if self.checkpoint_store is not None else None)
        return index

    # -- batched boundary ops --------------------------------------------------
    def _batch_safe(self) -> bool:
        """True when batched physical execution cannot be observed.

        Batching collapses many boundary crossings into one physical pass, so
        it is only legal when nothing hangs semantics off the *per-call*
        physical sequence: no retry policy (fault injection counts physical
        attempts), no checkpoint journal (entries are sealed per boundary op),
        no replay cursor, and a host whose slot methods are the unmodified
        :class:`HostMemory` ones — adversarial hosts override ``read_slot`` to
        tamper with the n-th physical read, and wrapper hosts (faulty, chaos,
        recovery) interpose per-call behaviour.
        """
        if not self.batched_io or self.retry is not None:
            return False
        if self.checkpoint_store is not None or self.replaying:
            return False
        safe = self._host_batch_safe
        if safe is None:
            host_type = type(self.host)
            safe = (
                host_type.read_slot is HostMemory.read_slot
                and host_type.write_slot is HostMemory.write_slot
                and host_type.append_slot is HostMemory.append_slot
            )
            self._host_batch_safe = safe
        return safe

    @property
    def batched_hot_path(self) -> bool:
        """True when vectorized (tier-2) primitives may run.

        On top of :meth:`_batch_safe`, the gather/scatter path needs the
        plaintext cache: elided re-reads of enclave-resident batch plaintexts
        are charged as ``cache_hits``, which only balances the
        ``physical + hits == decryptions`` ledger when the cache is on.  With
        the cache off every modeled decryption must be physical, so callers
        fall back to the scalar network.
        """
        return self.cache_enabled and self._batch_safe()

    def get_many(self, slots: Iterable[tuple[str, int]]) -> list[bytes]:
        """Read several host slots in one boundary call.

        Per-slot trace events, modeled counters, and cache behaviour are
        identical to the equivalent sequence of :meth:`get` calls — batching
        only collapses the physical work (one :meth:`CryptoProvider.decrypt_many`
        pass over the cache misses instead of one provider roundtrip per
        slot).  The caller must hold enough enclave slots for every plaintext
        returned.
        """
        slots = list(slots)
        if len(slots) < 2 or not self._batch_safe():
            get = self.get
            return [get(region, index) for region, index in slots]
        return self._get_batch(slots)

    def _get_batch(self, slots: list[tuple[str, int]]) -> list[bytes]:
        """Batched GET: one physical decrypt pass over the cache misses.

        Re-creates the scalar cache semantics exactly, including duplicate
        slots within one batch: the first occurrence of a slot that misses
        pays the physical decrypt, later occurrences of the same (slot,
        ciphertext) count as cache hits just as they would after the scalar
        path filled the cache.
        """
        host = self.host
        read = host.read_slot
        ciphertexts = [read(region, index) for region, index in slots]
        n = len(slots)
        trace = self.trace
        if not self.cache_enabled:
            plaintexts = decrypt_batch(self.provider, ciphertexts)
            for region, index in slots:
                trace.record(GET, region, index)
            self.decryptions += n
            self.physical_decryptions += n
            self.ops_completed += n
            self.batched_ops += 1
            self.batch_rows += n
            return plaintexts
        cache = self._cache
        results: list[bytes | None] = [None] * n
        #: (region, index) -> (ciphertext, miss position) for misses resolved
        #: in this batch; later equal-byte occurrences are cache hits.
        pending: dict[tuple[str, int], tuple[bytes, int]] = {}
        miss_positions: list[int] = []
        miss_ciphertexts: list[bytes] = []
        hits = 0
        for k, ((region, index), ciphertext) in enumerate(zip(slots, ciphertexts)):
            key = (region, index)
            entry = cache.get(key)
            if entry is not None and entry[0] == ciphertext:
                results[k] = entry[1]
                hits += 1
                continue
            earlier = pending.get(key)
            if earlier is not None and earlier[0] == ciphertext:
                results[k] = earlier[1]  # placeholder: miss position
                hits += 1
                continue
            pending[key] = (ciphertext, k)
            miss_positions.append(k)
            miss_ciphertexts.append(ciphertext)
        if miss_ciphertexts:
            decrypted = decrypt_batch(self.provider, miss_ciphertexts)
            for k, ciphertext, plaintext in zip(
                miss_positions, miss_ciphertexts, decrypted
            ):
                results[k] = plaintext
                cache[(slots[k][0], slots[k][1])] = (ciphertext, plaintext)
        # Resolve in-batch duplicate hits (their placeholder is the position
        # of the miss that produced the plaintext).
        for k in range(n):
            if isinstance(results[k], int):
                results[k] = results[results[k]]
        for region, index in slots:
            trace.record(GET, region, index)
        self.decryptions += n
        self.cache_hits += hits
        self.physical_decryptions += len(miss_ciphertexts)
        self.ops_completed += n
        self.batched_ops += 1
        self.batch_rows += n
        return results  # type: ignore[return-value]

    def put_many(self, slots: Iterable[tuple[str, int, bytes]]) -> None:
        """Write several plaintexts out in one boundary call (fresh nonces each)."""
        slots = list(slots)
        if len(slots) < 2 or not self._batch_safe():
            put = self.put
            for region, index, plaintext in slots:
                put(region, index, plaintext)
            return
        ciphertexts = encrypt_batch(self.provider, [p for _, _, p in slots])
        write = self.host.write_slot
        trace = self.trace
        cache = self._cache if self.cache_enabled else None
        for (region, index, plaintext), ciphertext in zip(slots, ciphertexts):
            write(region, index, ciphertext)
            trace.record(PUT, region, index)
            if cache is not None:
                cache[(region, index)] = (ciphertext, plaintext)
        n = len(slots)
        self.encryptions += n
        self.ops_completed += n
        self.batched_ops += 1
        self.batch_rows += n

    def append_many(self, region: str, plaintexts: Sequence[bytes]) -> list[int]:
        """Append several encrypted tuples to a growable region in one call."""
        plaintexts = list(plaintexts)
        if len(plaintexts) < 2 or not self._batch_safe():
            put_append = self.put_append
            return [put_append(region, plaintext) for plaintext in plaintexts]
        ciphertexts = encrypt_batch(self.provider, plaintexts)
        append = self.host.append_slot
        trace = self.trace
        cache = self._cache if self.cache_enabled else None
        indices = []
        for plaintext, ciphertext in zip(plaintexts, ciphertexts):
            index = append(region, ciphertext)
            trace.record(PUT, region, index)
            if cache is not None:
                cache[(region, index)] = (ciphertext, plaintext)
            indices.append(index)
        n = len(plaintexts)
        self.encryptions += n
        self.ops_completed += n
        self.batched_ops += 1
        self.batch_rows += n
        return indices

    # -- ranged boundary ops ---------------------------------------------------
    def get_range(self, region: str, start: int, count: int) -> list[bytes]:
        """Read ``count`` contiguous slots starting at ``start`` in one pass.

        Trace events and modeled counters equal the scalar sequence
        ``get(region, start) .. get(region, start + count - 1)``.
        """
        return self.get_many((region, start + i) for i in range(count))

    def put_range(self, region: str, start: int, plaintexts: Sequence[bytes]) -> None:
        """Write contiguous slots starting at ``start`` in one pass."""
        self.put_many(
            (region, start + i, plaintext)
            for i, plaintext in enumerate(plaintexts)
        )

    # -- vectorized physical execution (tier 2) --------------------------------
    #
    # The comparator-network primitives below split the logical ledger from
    # physical execution: ``gather_slots``/``scatter_slots`` move whole slot
    # sets across the boundary *without* recording anything, and
    # ``charge_boundary`` then records the scalar network's per-slot events
    # and modeled counts in their original order.  Legal only under
    # ``batched_hot_path`` and only for sections whose scalar equivalent is a
    # sequence of wire-disjoint read-modify-write steps over the gathered
    # slots (a comparator network): the final host state, the declared trace
    # and every modeled counter match the scalar execution exactly, while the
    # physical crypto collapses to one decrypt pass and one encrypt pass.

    def gather_slots(self, region: str, indices: Sequence[int]) -> list[bytes]:
        """Physically read a slot set for a vectorized section (unrecorded).

        Decrypts cache misses in one batch; the physical decrypts performed
        here are remembered in a pending ledger that the next
        :meth:`charge_boundary` settles against the section's modeled GETs.
        """
        read = self.host.read_slot
        cache = self._cache
        ciphertexts = [read(region, index) for index in indices]
        plaintexts: list[bytes | None] = [None] * len(indices)
        miss_positions: list[int] = []
        miss_ciphertexts: list[bytes] = []
        for k, (index, ciphertext) in enumerate(zip(indices, ciphertexts)):
            entry = cache.get((region, index))
            if entry is not None and entry[0] == ciphertext:
                plaintexts[k] = entry[1]
            else:
                miss_positions.append(k)
                miss_ciphertexts.append(ciphertext)
        if miss_ciphertexts:
            decrypted = decrypt_batch(self.provider, miss_ciphertexts)
            for k, ciphertext, plaintext in zip(
                miss_positions, miss_ciphertexts, decrypted
            ):
                plaintexts[k] = plaintext
                cache[(region, indices[k])] = (ciphertext, plaintext)
            self.physical_decryptions += len(miss_ciphertexts)
            self._batch_physical_pending += len(miss_ciphertexts)
        self.batched_ops += 1
        self.batch_rows += len(indices)
        return plaintexts  # type: ignore[return-value]

    def scatter_slots(
        self, region: str, indices: Sequence[int], plaintexts: Sequence[bytes]
    ) -> None:
        """Physically write a slot set for a vectorized section (unrecorded).

        One batch encrypt under fresh nonces; modeled PUTs are charged by the
        section's :meth:`charge_boundary` call.
        """
        ciphertexts = encrypt_batch(self.provider, plaintexts)
        write = self.host.write_slot
        cache = self._cache
        for index, ciphertext, plaintext in zip(indices, ciphertexts, plaintexts):
            write(region, index, ciphertext)
            cache[(region, index)] = (ciphertext, plaintext)
        self.batched_ops += 1
        self.batch_rows += len(plaintexts)

    def charge_boundary(self, events: Iterable[tuple[str, str, int]]) -> None:
        """Settle the logical ledger for a completed vectorized section.

        Records the declared ``(op, region, index)`` events in order — the
        exact sequence the scalar execution would have emitted — and charges
        the modeled counters.  GETs beyond the physical decrypts pending from
        :meth:`gather_slots` were served from enclave-resident batch
        plaintexts, the vectorized analogue of a slot-cache hit, and are
        charged as ``cache_hits`` so the ``physical + hits == decryptions``
        ledger keeps balancing.
        """
        record = self.trace.record
        gets = 0
        puts = 0
        for op, region, index in events:
            record(op, region, index)
            if op == GET:
                gets += 1
            else:
                puts += 1
        pending = self._batch_physical_pending
        self._batch_physical_pending = 0
        self.decryptions += gets
        self.encryptions += puts
        self.cache_hits += gets - pending
        self.ops_completed += gets + puts

    # -- cache management ------------------------------------------------------
    @property
    def cache_entries(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached (ciphertext, plaintext) slot pair.

        Correctness never requires this — a stale entry can only miss, because
        fresh nonces make every ciphertext T emits byte-distinct — but callers
        retiring regions can use it to bound simulation memory.
        """
        self._cache.clear()

    # -- statistics -----------------------------------------------------------
    def reset_trace(self) -> Trace:
        """Swap in a fresh trace (from the configured factory), returning the old one."""
        old, self.trace = self.trace, self.trace_factory()
        return old
