"""Traced stand-in for `python -m pdsampling.cli`: same argv, same stdout.

Runs pdsampling.cli.main under a Tracer that also spans json.dumps, then
writes the spans and counts as one JSON line at the end of stderr.
Usage: python3 perfbench/cli_child.py <pdsampling arguments>
"""

import json
import sys

import pdsampling.cli
import tracing


def main():
    tracer = tracing.Tracer(extra=[(json, "dumps", "cli.json_dumps")])
    tracer.begin_op(0)
    tracer.install()
    try:
        rc = pdsampling.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.export()) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
