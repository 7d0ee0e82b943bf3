"""Run one fglthh CLI command under the tracer.

Usage: python traced_cli.py TRACE_JSON CLI_ARG...

The CLI's own output goes to stdout exactly as ``python -m fglthh.cli``
would write it; the span aggregate is written to TRACE_JSON.
"""

import json
import sys

import fglthh.cli

from tracer import Tracer


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        status = fglthh.cli.main(argv)
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
