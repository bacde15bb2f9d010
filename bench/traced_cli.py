"""Run one gradedpi command with per-layer tracing.

    python3 bench/traced_cli.py factor-check --shape 1,1 ...

Behaves like `python3 -m gradedpi ...`; the raw trace summary is printed
as the last line of stderr for the worker to merge.
"""

import json
import sys

import gradedpi.cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer().install()
    code = gradedpi.cli.main(sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.raw()) + "\n")
    sys.exit(code)
