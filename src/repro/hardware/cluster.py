"""Multiple coprocessors on one host (Sections 4.4.4 and 5.3.5).

"Consider a server which has more than one secure coprocessor attached" — the
parallel variants of the algorithms partition work across the P coprocessors
of a :class:`Cluster`.  The simulation runs the coprocessors' work sequentially
but accounts it per-coprocessor; the modelled parallel makespan is the maximum
per-coprocessor transfer count, so linear speedup shows up as
``makespan ~= total / P``.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError, TransientHostError
from repro.hardware.coprocessor import SecureCoprocessor, TraceFactory
from repro.hardware.host import HostMemory


class Cluster:
    """P secure coprocessors attached to a single host.

    All coprocessors share one crypto provider: in the real deployment they
    would hold the same session keys after the contract handshake, and sharing
    the provider's nonce counter preserves nonce uniqueness across devices.
    """

    def __init__(
        self,
        host: HostMemory,
        provider: CryptoProvider,
        count: int,
        memory_limit: int | None = None,
        trace_factory: TraceFactory | None = None,
        plaintext_cache: bool = True,
        batched_io: bool = True,
    ) -> None:
        if count < 1:
            raise ConfigurationError("a cluster needs at least one coprocessor")
        self.host = host
        self.provider = provider
        # Slot caches are per-coprocessor: a slot rewritten by a sibling
        # device simply misses (byte-inequality) and takes the physical path.
        self.coprocessors = [
            SecureCoprocessor(host, provider, memory_limit=memory_limit, name=f"T{i}",
                              trace_factory=trace_factory,
                              plaintext_cache=plaintext_cache,
                              batched_io=batched_io)
            for i in range(count)
        ]

    def __len__(self) -> int:
        return len(self.coprocessors)

    def __iter__(self):
        return iter(self.coprocessors)

    def __getitem__(self, index: int) -> SecureCoprocessor:
        return self.coprocessors[index]

    # -- work partitioning helpers -------------------------------------------
    def partition_range(self, size: int) -> list[range]:
        """Split [0, size) into len(self) nearly equal contiguous ranges."""
        count = len(self.coprocessors)
        base, extra = divmod(size, count)
        ranges = []
        start = 0
        for i in range(count):
            length = base + (1 if i < extra else 0)
            ranges.append(range(start, start + length))
            start += length
        return ranges

    # -- accounting -------------------------------------------------------------
    def total_transfers(self) -> int:
        return sum(t.trace.transfer_count() for t in self.coprocessors)

    def makespan_transfers(self) -> int:
        """The modelled parallel completion time: the busiest coprocessor."""
        return max(t.trace.transfer_count() for t in self.coprocessors)

    def speedup(self) -> float:
        """total / makespan — equals P under a perfectly balanced partition."""
        makespan = self.makespan_transfers()
        if makespan == 0:
            return float(len(self.coprocessors))
        return self.total_transfers() / makespan

    def run_partitioned(
        self,
        size: int,
        work: Callable[[SecureCoprocessor, range, int], None],
        transient_retries: int = 0,
    ) -> list[range]:
        """Apply ``work(coprocessor, index_range, worker)`` over a balanced partition.

        ``worker`` is the coprocessor's position in the cluster — the
        authoritative identity for per-worker accounting (never parse it back
        out of the coprocessor's display name).

        A worker raising mid-partition surfaces the failure annotated with
        which worker and index range died, preserving the exception type so
        callers' handling (e.g. of ``AuthenticationError``) is unchanged.
        ``transient_retries`` re-runs a partition's work up to that many times
        after a :class:`~repro.errors.TransientHostError` — the work must be
        idempotent over its index range (fixed-slot writes are; blind appends
        are not).
        """
        ranges = self.partition_range(size)
        for worker, (coprocessor, index_range) in enumerate(
            zip(self.coprocessors, ranges)
        ):
            attempt = 0
            while True:
                try:
                    work(coprocessor, index_range, worker)
                    break
                except TransientHostError as error:
                    if attempt < transient_retries:
                        attempt += 1
                        continue
                    # Retries exhausted: surface it annotated exactly like any
                    # other worker failure, so callers see which worker and
                    # index range died regardless of the failure class.
                    raise self._annotate(error, worker, coprocessor, index_range)
                except Exception as error:
                    raise self._annotate(error, worker, coprocessor, index_range)
        return ranges

    @staticmethod
    def _annotate(
        error: Exception,
        worker: int,
        coprocessor: SecureCoprocessor,
        index_range: range,
    ) -> Exception:
        """The same-typed, worker-attributed copy of a partition failure.

        A type that cannot be rebuilt from one message argument surfaces as
        the original exception, with the worker context in ``__notes__``.
        """
        note = (
            f"worker {worker} ({coprocessor.name}) failed on "
            f"partition [{index_range.start}, {index_range.stop}): "
            f"{error}"
        )
        try:
            annotated = type(error)(note)
        except Exception:
            # add_note is 3.11+; on 3.10 set the attribute it would append to.
            error.__notes__ = [*getattr(error, "__notes__", []), note]
            return error
        annotated.__cause__ = error
        return annotated
