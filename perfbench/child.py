"""Run one `harvest` CLI invocation in a fresh interpreter and record its timings.

Usage: python3 child.py RESULT_JSON {run,setup,trace} -- CLI_ARGS...

`setup` stops as soon as the config is parsed; `trace` installs the span
tracer before the run.  The result file holds the time.monotonic() readings
at which set-up ended and the run ended (that clock is system-wide on Linux,
so the parent compares them with its launch time), the CLI's exit code, the
stepping lane, and for `trace` the spans and counters.
"""

import json
import sys
import time


class _SetupDone(BaseException):
    """Raised after config parsing in setup-only mode; not a HarvestError."""


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    import harvest.cli as cli
    from harvest import mcs

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    marks = {}
    parse = cli.parse_config

    def parse_config(doc):
        cfg = parse(doc)
        marks["setup_end"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return cfg

    cli.parse_config = parse_config
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    marks["end"] = time.monotonic()
    out = {"exit_code": code, "marks": marks, "lane": mcs.lane()}
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
