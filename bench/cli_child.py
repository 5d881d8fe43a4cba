"""Traced child process for the cli-cold workload.

Times ``import regsel.cli``, installs the tracer, runs ``regsel.cli.main``
on the remaining arguments and writes its spans to SPANS.npz. Stdout and
the exit code are the CLI's own.

    python3 bench/cli_child.py SPANS.npz solve --input ... --target ...
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import regsel.cli
    end = time.perf_counter()

    import json
    from tracing import Tracer

    tracer = Tracer()
    tracer.record("cli.import", start, end)
    tracer.install()
    try:
        return regsel.cli.main(sys.argv[2:])
    finally:
        tracer.save(sys.argv[1], counters=json.dumps(tracer.counters))


if __name__ == "__main__":
    sys.exit(main())
