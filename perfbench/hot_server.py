"""The hot-wire workload's server, in a process of its own.

    python3 perfbench/hot_server.py --seed N --rows R --repeats K

Builds the workload's rows from the seed, then ``K`` times builds a session
over them and serves it with ``repro.serve`` on a free localhost port,
stopping each server but the last.  It prints one JSON line: the address,
the object id of every row, in row order, and the seconds each set-up took
(session and index build plus server start).  It then reads commands from standard
input, one per line: ``counters`` prints the answer- and plan-cache
``(hits, misses, evictions)`` as one JSON line.  End of input stops the
server, and the process exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from repro import serve  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    args = parser.parse_args()
    values = workloads.walks(workloads.Streams(args.seed)(0), args.rows)
    data = workloads.as_series(values, "walk")
    setup_s = []
    session = handle = None
    for _ in range(args.repeats):
        if handle is not None:
            handle.stop()
            session.close()
            gc.collect()
        started = time.perf_counter()
        session = workloads.new_session(data)
        handle = serve(session)
        setup_s.append(time.perf_counter() - started)
    try:
        print(json.dumps({"address": list(handle.address),
                          "ids": [series.object_id for series in data],
                          "setup_s": setup_s}), flush=True)
        for line in sys.stdin:
            if line.strip() == "counters":
                print(json.dumps({"answer_cache": workloads.cache_counts(session.answer_cache),
                                  "plan_cache": workloads.cache_counts(session.plan_cache)}),
                      flush=True)
    finally:
        handle.stop()
        session.close()


if __name__ == "__main__":
    main()
