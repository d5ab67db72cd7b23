"""One denjoy-twist invocation in its own process, timed from inside.

    python3 perfbench/child.py SIDE_JSON MODE CLI_ARGS...

MODE is ``run`` (the CLI command, tracing off), ``trace`` (the same with
the span tracer installed) or ``import`` (import the package only, which
warms the bytecode and file caches). The package is imported from the
``src`` directory next to this one.

Tracing off, a single timer wraps ``BuiltSystem.__init__``: the side file
records the ``time.monotonic()`` at which the first system was built, so the
parent, which noted the same clock before it started this process, gets
process start to built system. The side file also holds the import time,
the piece-table size and, when tracing, the span aggregates. The durations
of the sampled spans go to ``steps.npy`` next to the side file.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    side_path, mode, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    from denjoy_twist import cli
    side = {"import_s": time.perf_counter() - t0}

    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    build = cli.BuiltSystem.__init__

    def timed_build(self, cfg):
        build(self, cfg)
        if "built_at" not in side:
            side["built_at"] = time.monotonic()
            side["n_pieces"] = int(getattr(self.g, "n_pieces", 0))
            side["local_diffeo_count"] = len(getattr(self.g, "local", ()))

    cli.BuiltSystem.__init__ = timed_build

    rc = 0 if mode == "import" else cli.main(cli_args)

    if tracer is not None:
        import numpy as np
        side["spans"] = tracer.records()
        steps = [d for name in tracing.SAMPLED for d in tracer.samples.get(name, ())]
        np.save(os.path.join(os.path.dirname(side_path), "steps.npy"),
                np.asarray(steps, dtype=float))
    with open(side_path, "w") as fh:
        json.dump(side, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
