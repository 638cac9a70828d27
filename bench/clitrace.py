"""Run one scpkit CLI command under the tracer.

Usage: python3 bench/clitrace.py SPANS_JSON ITEM_ID COMMAND [ARGS...]

Exits with the command's exit code and writes the recorded spans and
counters to SPANS_JSON.  The cli_pipeline workload runs its commands this
way when traced, then grafts the spans under the command's own span.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, item_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import scpkit.cli

    tracer = Tracer()
    tracer.item_id = item_id
    tracer.install()
    try:
        return scpkit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump({"spans": tracer.rows(), "counts": tracer.counts}, out)


if __name__ == "__main__":
    sys.exit(main())
