"""Run one chowkunneth command with the benchmark's tracer installed and
write the span aggregates to a JSON file.

    PYTHONPATH=src python3 perfbench/traced_cli.py TRACE.json build --space ...

The exit code is the command's own.
"""

import json
import sys

from tracer import Tracer


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from chowkunneth import cli

    try:
        return cli.main(argv)
    finally:
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
