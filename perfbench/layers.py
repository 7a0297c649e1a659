"""Per-layer metrics of one traced window.

Each metric is a per-job figure over the jobs completed and verified in
the window.  A time metric ending in ``_s`` is that layer's self time per
job, in CPU seconds of the thread that ran it (see :mod:`tracing`), summed
over the server and client processes.  The exceptions are wall-clock:
``service.execute_s`` is the join's inclusive time,
``service.execute_wait_s`` the part of it the join's thread spent not
running (waiting for the interpreter lock or a CPU), and
``net.done_lag_s``, ``net.pages_s`` and ``service.queue_wait_s`` are
intervals between two events of a job.
"""

from __future__ import annotations

from collections import defaultdict

import tracing
from tracing import CPU, END, ID, NAME, START

#: The self times of the spans inside ``service.execute`` must add up to
#: its CPU time within this share; the tracer's arithmetic is exact, so a
#: larger gap means a span or a timed call was lost.
SPLIT_TOLERANCE = 0.01

#: name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "net.wire_s": ("s", "lower"),
    "net.bytes_per_job": ("bytes", "lower"),
    "net.journal_append_s": ("s", "lower"),
    "net.journal_appends_per_job": ("count", "lower"),
    "net.status_polls_per_job": ("count", "lower"),
    "net.done_lag_s": ("s", "lower"),
    "net.pages_s": ("s", "lower"),
    "service.upload_encrypt_s": ("s", "lower"),
    "service.ingest_s": ("s", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.execute_s": ("s", "lower"),
    "service.execute_wait_s": ("s", "lower"),
    "service.deliver_s": ("s", "lower"),
    "service.rejections_per_job": ("count", "lower"),
    "core.algorithm_s": ("s", "lower"),
    "oblivious.sort_s": ("s", "lower"),
    "oblivious.sort_calls_per_job": ("count", "lower"),
    "oblivious.expand_s": ("s", "lower"),
    "oblivious.filter_s": ("s", "lower"),
    "hardware.transfers_per_job": ("count", "lower"),
    "hardware.trace_record_calls_per_job": ("count", "lower"),
    "hardware.trace_record_s": ("s", "lower"),
    "hardware.charge_boundary_s": ("s", "lower"),
    "hardware.trace_fingerprint_s": ("s", "lower"),
    "hardware.transfer_stats_s": ("s", "lower"),
    "hardware.slot_io_s": ("s", "lower"),
    "hardware.batched_row_share": ("ratio", "higher"),
    "hardware.cache_hit_ratio": ("ratio", "higher"),
    "crypto.ocb_s": ("s", "lower"),
    "crypto.ocb_cells_per_job": ("count", "lower"),
    "crypto.party_s": ("s", "lower"),
    "relational.codec_s": ("s", "lower"),
    "relational.codec_rows_per_job": ("count", "lower"),
    "runtime.gc_pause_s": ("s", "lower"),
    "trace.execute_split_error": ("ratio", "lower"),
    "trace.throughput_ratio": ("ratio", "higher"),
}

#: span layer -> metric name of its self time
_SELF_TIMES = {
    "net.wire": "net.wire_s",
    "net.journal_append": "net.journal_append_s",
    "service.upload_encrypt": "service.upload_encrypt_s",
    "service.ingest": "service.ingest_s",
    "service.deliver": "service.deliver_s",
    "service.execute": "core.algorithm_s",
    "oblivious.sort": "oblivious.sort_s",
    "oblivious.expand": "oblivious.expand_s",
    "oblivious.filter": "oblivious.filter_s",
    "hardware.trace_record": "hardware.trace_record_s",
    "hardware.charge_boundary": "hardware.charge_boundary_s",
    "hardware.trace_fingerprint": "hardware.trace_fingerprint_s",
    "hardware.transfer_stats": "hardware.transfer_stats_s",
    "hardware.slot_io": "hardware.slot_io_s",
    "crypto.ocb": "crypto.ocb_s",
    "crypto.party": "crypto.party_s",
    "relational.codec": "relational.codec_s",
}

#: span layer -> metric name of its work units per job
_UNITS = {
    "net.journal_append": "net.journal_appends_per_job",
    "net.status": "net.status_polls_per_job",
    "oblivious.sort": "oblivious.sort_calls_per_job",
    "hardware.trace_record": "hardware.trace_record_calls_per_job",
    "crypto.ocb": "crypto.ocb_cells_per_job",
    "relational.codec": "relational.codec_rows_per_job",
}


def in_window(spans: list, start: float, end: float) -> list:
    return [s for s in spans if start <= s[START] <= end]


def execute_split(spans: list) -> tuple[float, float, dict[str, float]]:
    """``service.execute`` wall and CPU time, and the CPU time's split
    into layer self times."""
    roots = [s for s in spans if s[NAME] == "service.execute"]
    wall = sum(s[END] - s[START] for s in roots)
    cpu = sum(s[CPU] for s in roots)
    seconds, _ = tracing.layer_totals(
        spans, tracing.subtree_ids(spans, {s[ID] for s in roots}))
    return wall, cpu, dict(seconds)


def per_layer(ok: list, start: float, end: float, client_spans: list,
              server: dict, client_bytes: float, client_retries: float,
              throughput_ratio: float) -> tuple[dict[str, float], dict]:
    """Every per-layer metric of a traced window, and the execute split."""
    jobs = len(ok)
    server_spans = in_window(server["spans"], start, end)
    # Span IDs are unique per process only, so each process is summed
    # on its own.
    seconds: dict[str, float] = defaultdict(float)
    units: dict[str, int] = defaultdict(int)
    for spans in (server_spans, in_window(client_spans, start, end)):
        process_seconds, process_units = tracing.layer_totals(spans)
        for layer, value in process_seconds.items():
            seconds[layer] += value
        for layer, value in process_units.items():
            units[layer] += value
    values: dict[str, float] = defaultdict(float)
    for layer, name in _SELF_TIMES.items():
        values[name] = seconds.get(layer, 0.0) / jobs
    for layer, name in _UNITS.items():
        values[name] = units.get(layer, 0) / jobs

    execute_wall, execute_cpu, split = execute_split(server_spans)
    values["service.execute_s"] = execute_wall / jobs
    values["service.execute_wait_s"] = (execute_wall - execute_cpu) / jobs
    values["trace.execute_split_error"] = (
        abs(sum(split.values()) - execute_cpu) / execute_cpu
        if execute_cpu else 0.0)

    book = [r for r in server["jobs"] if start <= r["submitted"] <= end]
    finished = {r["job"]: r["finished"] for r in book if "finished" in r}
    waits = [r["started"] - r["submitted"] for r in book if "started" in r]
    values["service.queue_wait_s"] = sum(waits) / len(waits) if waits else 0.0
    lags = [s.waited - finished[s.job_id] for s in ok if s.job_id in finished]
    values["net.done_lag_s"] = sum(lags) / len(lags) if lags else 0.0
    values["net.pages_s"] = sum(s.finished - s.waited for s in ok) / jobs
    values["net.bytes_per_job"] = client_bytes / jobs
    rejections = sum(1 for t in server["rejections"] if start <= t <= end)
    values["service.rejections_per_job"] = (rejections + client_retries) / jobs

    counters = [r["counters"] for r in book if "counters" in r]
    transfers = sum(c["decryptions"] + c["encryptions"] for c in counters)
    decryptions = sum(c["decryptions"] for c in counters)
    values["hardware.transfers_per_job"] = (
        sum(s.status.transfers for s in ok) / jobs)
    values["hardware.batched_row_share"] = (
        sum(c["batch_rows"] for c in counters) / transfers if transfers else 0.0)
    values["hardware.cache_hit_ratio"] = (
        sum(c["cache_hits"] for c in counters) / decryptions
        if decryptions else 0.0)
    values["runtime.gc_pause_s"] = sum(
        d for t, d in server["gc_pauses"] if start <= t <= end) / jobs
    values["trace.throughput_ratio"] = throughput_ratio
    split_per_job = {k: v / jobs for k, v in sorted(split.items())}
    return {name: values[name] for name in PER_LAYER}, split_per_job
