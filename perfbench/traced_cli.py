"""Run the sternbrocot CLI under the tracer, for traced cli-readme operations.

    python3 perfbench/traced_cli.py STATS.json <sternbrocot arguments...>

Behaves like `python -m sternbrocot <arguments>` (same stdout, stderr and
exit code) and writes the tracer's aggregate spans and counts to
STATS.json, which the parent adds into its own trace.
"""

import json
import sys

from tracing import Tracer, install


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from sternbrocot import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = cli.run(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
