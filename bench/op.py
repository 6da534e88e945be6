"""One benchmark op: a fresh interpreter running the ``lfgeom`` CLI once.

Usage: python3 bench/op.py SIDECAR TRACE OP_ID -- <lfgeom arguments>

Does what the ``lfgeom`` console script does (import ``lfgeom.cli``, call
``main``, exit with its status).  With TRACE=1 it also installs the span
tracer before ``main`` and writes the spans to the SIDECAR JSON file; a
traceback from ``main`` still reaches stderr and the exit status, as it
would for a user.
"""

import json
import sys


def main():
    sidecar, trace, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: op.py SIDECAR TRACE OP_ID -- <lfgeom arguments>")
    import lfgeom.cli as cli
    if trace != "1":
        return cli.main(argv)
    from tracer import Tracer
    tracer = Tracer(int(op_id))
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(sidecar, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
