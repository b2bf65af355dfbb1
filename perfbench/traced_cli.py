"""Run one prymkit command line under the per-layer tracer.

Usage: python3 perfbench/traced_cli.py TRACE_JSON prymkit-arguments...

Behaves like `python3 -m prymkit.cli prymkit-arguments...` (same output and
exit code) and writes the per-layer counts of the call to TRACE_JSON.
"""

import json
import sys

from tracer import Tracer  # this script's directory is on sys.path


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from prymkit import cli

    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
