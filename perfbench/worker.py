"""One operation of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD INPUT_SEED WORKDIR TRACED

Imports rotorwalk from the checkout, runs the workload once, and writes
WORKDIR/result.json with its timestamps (time.monotonic, which is one clock
for every process on the machine).  With TRACED=1 the calls into each layer
are wrapped in spans, and the spans and count metrics go into result.json
too; the counts are taken after the last output is written, so their cost
is outside the timed operation.
"""
import time

T_MAIN = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, workdir, traced = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    tracer = tracing.Tracer()
    tracer.spans.append(["bench.start", T_MAIN, time.monotonic(), -1, 0, 0])
    with tracer.span("bench.import"):
        mods = tracing.import_package()
    first_harmonic = tracing.probe_first_harmonic_call(mods)
    recorder = tracing.install(tracer, mods) if traced else None

    workloads.WORKLOADS[name].run(mods, seed, workdir, tracer)
    t_end = time.monotonic()

    result = {"t_main": T_MAIN, "t_end": t_end,
              "t_first_harmonic": first_harmonic[0] if first_harmonic else None}
    if recorder is not None:
        result.update(spans=tracer.spans, counts=recorder.counts(), residuals=recorder.residuals)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
