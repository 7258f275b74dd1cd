"""Run the ``cognicrypt-gen`` CLI with the per-layer spans installed.

    python perfbench/traced_child.py DUMP.json <cli arguments...>

Used by traced runs only, in place of ``python -m repro.cli``; the
span totals are written to ``DUMP.json`` when the CLI returns.
"""

from __future__ import annotations

import sys

from tracer import Tracer, install


def main() -> int:
    dump, *argv = sys.argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(dump)


if __name__ == "__main__":
    raise SystemExit(main())
