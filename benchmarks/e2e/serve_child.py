"""The served workloads' server: one ``TdbServer`` in a process of its own.

In-process serving shares the generator's interpreter lock (two clients
measured slower than one), so the server gets a process.  The launcher
creates a fresh file-backed database under the fixed conditions, starts
a ``TdbServer`` at its defaults and talks to its parent in JSON lines:

* on start it prints ``{"port": n}``;
* ``report`` on stdin prints the database's public counters
  (:func:`benchmarks.e2e.hostinfo.snapshot_db`) — over the pipe, not the
  ``stats`` verb, because a third connection would change what is
  measured (see the README's finding 4);
* with ``--trace``, ``trace on`` / ``trace off`` start and stop span
  recording and ``spans <path>`` writes the spans recorded so far to
  ``path`` and prints their summary;
* end of input stops the server, closes the database and exits.

The parent kills it with ``SIGKILL`` for the durability check, so
nothing here may be needed for committed data to survive.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import Database, ObjectStoreConfig
from repro.server import TdbServer

from benchmarks.e2e.hostinfo import snapshot_db
from benchmarks.e2e.trace import Tracer, summarize
from benchmarks.e2e.workloads import WARM_CACHE_BYTES, fixed_chunk_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        # Before the database exists: the object store binds its commit
        # sink when it is built.  Wrappers pass through until "trace on".
        tracer = Tracer()
        tracer.install()
    db = Database.create(
        args.dir, fixed_chunk_config(), ObjectStoreConfig(cache_bytes=WARM_CACHE_BYTES)
    )
    server = TdbServer(db).start()

    def say(message) -> None:
        sys.stdout.write(json.dumps(message, separators=(",", ":")) + "\n")
        sys.stdout.flush()

    say({"port": server.port})
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "report":
                say(snapshot_db(db))
            elif command == "trace" and tracer is not None:
                tracer.enabled = argument == "on"
                say({"tracing": tracer.enabled})
            elif command == "spans" and tracer is not None:
                tracer.dump(argument)
                summary = summarize(tracer.spans)
                summary["missing"] = tracer.missing
                say(summary)
            else:
                say({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
