"""Run one bosonbounds command the way the installed console script does.

``python3 cli_child.py bounds --v 2`` behaves like ``bosonbounds bounds
--v 2``.  With PERFBENCH_SPANS set, the package's public functions are
traced and the spans written to that file when the command returns;
PERFBENCH_PROBLEM labels them with the command's index in the run.
"""

import os
import sys

spans_path = os.environ.get("PERFBENCH_SPANS")
if spans_path is None:
    from bosonbounds.cli import entry

    entry()
else:
    import bosonbounds.cli
    import tracer

    recorder = tracer.Recorder()
    recorder.problem = int(os.environ.get("PERFBENCH_PROBLEM", "-1"))
    tracer.install(recorder)
    try:
        code = bosonbounds.cli.main(sys.argv[1:])
    finally:
        recorder.dump(spans_path)
    sys.exit(code)
