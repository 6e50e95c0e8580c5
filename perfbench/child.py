"""Child processes of the benchmark; each prints one JSON line when done.

``setup``   set up once in a fresh interpreter and report the seconds;
``plan``    set up, then run the plan serially twice, with cell-level
            spans: first into the cache (how studies-warm fills it), then
            into a second, empty one;
``worker``  set up, print ``ready``, wait for a line on stdin, then drain
            the plan through the shared cache with ``QueueWorker.drain``
            -- what ``repro worker`` does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "plan", "worker"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--worker-id", default="worker")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s, compiled, cache = harness.set_up(args.seed, args.cache)
    out = {"setup_s": setup_s}
    if args.mode == "plan":
        from repro.api import open_cache

        out["passes"] = []
        for target in (cache, open_cache(f"{args.cache}-second")):
            with Tracer(detail=False) as tracer:
                harness.timed(harness.execute, compiled, target)
            out["passes"].append(tracer.state())
    elif args.mode == "worker":
        from repro.campaign.queue import QueueWorker

        with Tracer(detail=bool(args.trace)) as tracer:
            worker = QueueWorker(compiled, cache, worker_id=args.worker_id,
                                 max_wait=120.0)
            print("ready", flush=True)
            sys.stdin.readline()
            out["start"] = time.monotonic()
            report = worker.drain()
            out["end"] = time.monotonic()
        out["report"] = {"simulated": report.simulated,
                         "lease_waits": report.lease_waits,
                         "served_elsewhere": report.served_elsewhere}
        out["tracer"] = tracer.state()
    out["peak_rss_mb"] = harness.peak_rss_mb()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
