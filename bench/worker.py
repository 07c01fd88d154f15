"""Run one round of benchmark ops in this process, through blockcomp.cli.main.

    python3 bench/worker.py MANIFEST RESULT     # run the ops MANIFEST lists
    python3 bench/worker.py --probe RESULT      # only start up, import, probe

RESULT holds ``import_done``, the monotonic clock right after
``import blockcomp.cli``; the parent subtracts its spawn time to get the
set-up time.  Each op is timed on its own, sequentially, and its exit
status or exception name is recorded.  ``probes`` are timings of a fixed
pure-Python loop, taken after the import and between consecutive ops
(n + 1 of them for n ops), outside the timed regions; they tell the parent
how fast the machine ran around each op.  With ``"trace": true`` in the
manifest, spans around the program's layers are recorded (see tracing.py)
and written to RESULT at the end.  ``peak_rss_kb`` is read as soon as the
last op returns, from VmHWM: ``getrusage`` would report the parent's size
instead when the parent is the larger, because the high-water mark carries
over fork and exec.
"""

import gc
import json
import os
import sys
import time
from fractions import Fraction

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import blockcomp.cli  # noqa: E402  (set-up time ends here)

IMPORT_DONE = time.monotonic()



def probe() -> float:
    """Seconds for a fixed Fraction loop, the best of three, with the cyclic
    garbage collector off so that the program's heap does not enter into it."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            total = Fraction(0)
            for j in range(1, 200):
                total += Fraction(1, j % 97 + 1)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def run_manifest(manifest: dict) -> dict:
    tracer = None
    if manifest.get("trace"):
        sys.path.insert(0, _HERE)
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    records = []
    probes = [probe()]
    for op in manifest["ops"]:
        argv = op["argv"] + ["--out", op["out"]]
        status, error = None, None
        if tracer is not None:
            tracer.enter("cli.main", "cli")
        start = time.perf_counter()
        try:
            status = blockcomp.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = type(exc).__name__
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.leave()
        records.append({"seconds": seconds, "status": status, "error": error})
        probes.append(probe())
    result = {"import_done": IMPORT_DONE, "ops": records, "peak_rss_kb": peak_rss_kb(),
              "probes": probes}
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["--probe"]:
        _write(argv[1], {"import_done": IMPORT_DONE, "probes": [probe()]})
        return 0
    with open(argv[0]) as fh:
        manifest = json.load(fh)
    _write(argv[1], run_manifest(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
