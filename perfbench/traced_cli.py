"""The jade CLI with a span around each library call it makes.

Usage: python3 perfbench/traced_cli.py SPANS_FILE RUN_ID CLI_ARGS...

Wraps the functions of ``spec.LAYER_CALLS`` wherever the CLI and pipeline
modules refer to them, runs ``jade.cli.main(CLI_ARGS)`` and writes the spans
as JSON to SPANS_FILE, so the traced run can split a CLI process's wall time
into library work and the rest.
"""

import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import jade.cli
import jade.pipeline

from spec import LAYER_CALLS
from tracer import Tracer


def _wrap(fn, span: str, tracer: Tracer, run_id: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span, run_id):
            return fn(*args, **kwargs)

    return traced


if __name__ == "__main__":
    spans_file, run_id, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    for module in (jade.cli, jade.pipeline):
        for fn_name, span in LAYER_CALLS.items():
            fn = getattr(module, fn_name, None)
            if callable(fn):
                setattr(module, fn_name, _wrap(fn, span, tracer, run_id))
    try:
        code = jade.cli.main(cli_args)
    finally:
        Path(spans_file).write_text(json.dumps([asdict(s) for s in tracer.spans]))
    sys.exit(code)
