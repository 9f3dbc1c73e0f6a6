"""One hkpell CLI invocation with layer tracing, for the traced cli_batch run.

    python bench/cli_probe.py <hkpell arguments>

Behaves like `python -m hkpell.cli <arguments>`.  Its last stderr line is
"#bench-trace " followed by JSON: the perf_counter() reading when hkpell.cli
had been imported, and the spans and counters of the invocation.
"""

import json
import sys
import time

import hkpell.cli

imported = time.perf_counter()

from tracing import Tracer, cache_counts  # noqa: E402  (timed import first)

tracer = Tracer()
tracer.install()
try:
    code = hkpell.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
tracer.counts.update(cache_counts())
sys.stdout.flush()
print("#bench-trace " + json.dumps({"imported": imported, "trace": tracer.export()}),
      file=sys.stderr)
sys.exit(code)
