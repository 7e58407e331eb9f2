"""Run ``repro serve`` / ``repro route`` with the timed wrappers installed.

Usage (from the checkout root)::

    python3 perfbench/launch.py --role daemon --proc daemon:0 \\
        --spans RUN/a-daemon0.spans -- serve --socket RUN/a-n0.sock

The wrappers of :mod:`perfbench.wrap` for the given role go in first;
then the program's normal CLI entry runs with the remaining arguments.
When it returns (SIGTERM drains it), the wrappers come off and the spans
are written, with the list of targets that could not be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True, choices=("daemon", "router"))
    parser.add_argument("--proc", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import spans, wrap
    from repro.cli import main as repro_main

    rec = spans.Recorder(args.proc)
    restore, missing = wrap.install(rec, args.role)
    try:
        return repro_main(cli)
    finally:
        restore()
        rec.dump(args.spans)
        with open(args.spans + ".missing", "w") as fh:
            json.dump(missing, fh)


if __name__ == "__main__":
    raise SystemExit(main())
