"""The benchmark's server process: one journal-backed ``JoinServer``.

Run as ``python3 perfbench/server.py --journal DIR [--trace-out FILE]``
from the root of a checkout.  The service uses the program's default pool,
queue and coprocessor memory.  The process prints one JSON line with its
port once it listens, serves until its standard input closes, then prints
one JSON line with its peak resident memory and exits.  With
``--trace-out`` it first wraps the program's layers (see
:mod:`tracing`) and writes its spans to that file on the way out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    tracer = book = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        book = tracing.JobBook()
        tracing.install(tracer, book)
        tracer.watch_gc()

    from repro.core.service import JoinService
    from repro.net.server import JoinServer, ServerThread

    service = JoinService()
    server = JoinServer(service, host="127.0.0.1", port=0,
                        journal=args.journal)
    handle = ServerThread(server).start()
    print(json.dumps({
        "port": server.port,
        "provider": type(service.context.provider).__name__,
    }), flush=True)
    try:
        sys.stdin.read()  # serve until the load generator closes the pipe
    finally:
        handle.stop()
        service.close()
    if tracer is not None:
        tracer.unwatch_gc()
        spans = tracer.spans()
        book.resolve(spans)
        with open(args.trace_out, "w") as out:
            json.dump({
                "spans": spans,
                "gc_pauses": tracer.gc_pauses,
                "jobs": list(book.records.values()),
                "rejections": book.rejections,
            }, out)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
