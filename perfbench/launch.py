"""Traced `asmtree` console entry: python3 launch.py <trace-file> <asmtree args...>

Installs the per-layer wrappers in this fresh interpreter, runs
asmtree.cli:run with the remaining arguments and writes the trace to
<trace-file>, never to stdout or stderr. The untraced benchmark runs the
console entry directly, without this file.
"""

import sys

if __name__ == "__main__":
    # This file's directory is sys.path[0], so the benchmark's modules import.
    import tracing

    out = sys.argv[1]
    del sys.argv[1]
    tracer = tracing.Tracer()
    tracing.install(tracer, with_cli=True)
    import asmtree.cli

    try:
        asmtree.cli.run()
    finally:
        tracer.dump(out)
