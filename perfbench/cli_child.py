"""Run the fmvscreen CLI with its layer spans recorded, then write the spans.

The traced ``screen-csv`` items run this in place of ``python3 -m
fmvscreen.cli``, so the spans come from the same kind of process the timed
items use.

Usage: python3 perfbench/cli_child.py SPANS_JSON <fmvscreen arguments...>
"""

from __future__ import annotations

import sys

import fmvscreen.cli

import layers
from spans import Probe, Tracer, patched


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with patched(layers.TARGETS, Probe(tracer=tracer, counters=layers.COUNTERS)):
        with tracer.span(layers.CLI_MAIN):
            rc = fmvscreen.cli.main(cli_argv)
    tracer.write(spans_path)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
