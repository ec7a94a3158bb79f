"""The observability CLI: ``python -m repro.obs summarize trace.jsonl``.

Reads a JSON-lines trace exported by :meth:`repro.obs.tracing.Tracer.export`
and renders the per-operation aggregate tree — spans grouped by their
name-path from the root, each with count / total / self / p50 / p99, where
*self* is the total minus the direct child spans: the time no finer span
accounts for.
"""

import argparse
import sys

from repro.obs.tracing import read_trace, render_summary, summarize_trace


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Aggregate and render observability traces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    summarize = subparsers.add_parser(
        "summarize", help="render the per-operation count/total/self/p50/p99 tree"
    )
    summarize.add_argument("trace", help="a JSON-lines trace file (Tracer.export)")
    options = parser.parse_args(argv)

    entries = read_trace(options.trace)
    rows = summarize_trace(entries)
    if not rows:
        print(f"{options.trace}: no completed spans")
        return 1
    print(f"{options.trace}: {len(entries)} spans")
    print(render_summary(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
