"""Traced CLI child: python3 cli_boot.py TRACE_OUT [distrisk arguments...]

Records the import, parse, compute and emit stages and the layer spans of one
`distrisk` command, then calls `distrisk.cli.main` exactly as the console
script does and exits with its return code.  The span summary is written to
TRACE_OUT as JSON; stdout carries only the command's own report.
"""

import json
import sys

import tracer as tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    with tr.region("cli.import"):
        import distrisk.cli
    tracing.install(tr, distrisk)
    try:
        return distrisk.cli.main(argv)
    finally:
        summary = tr.summary()
        summary["spans"] = tr.span_records()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
