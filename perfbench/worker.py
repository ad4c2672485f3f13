"""One benchmark process: set up a workload, run its timed passes, check them.

``run.py`` starts this file with ``PYTHONPATH`` naming the checkout's
``src``.  The last line of standard output is one JSON object with the
monotonic time at which set-up ended, the measurements and the verdicts.
With ``--setup-only`` the process exits right after set-up and the speed
probes that follow it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import calibrate
from run import BLAS_VARS, ROOT

# end-to-end metrics measured by the worker; run.py adds setup_s
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB"}
# probes timed after set-up; their median is the speed set-up is scaled by
SETUP_PROBES = 3


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def timed_passes(workload, seconds, ops, tracer=None, patched=None):
    """Runs passes until ``seconds`` have elapsed; returns the wall times of
    the untraced and of the traced passes, and the probe times.  With a
    tracer, untraced and traced passes alternate, and each pair swaps which
    comes first, so that the first pass's warm-up does not always land on the
    same side.  Without one, the machine's speed is probed before the first
    pass and after every pass, so pass ``i`` lies between probes ``i`` and
    ``i + 1``."""
    walls = {False: [], True: []}
    probes = [] if tracer else [calibrate.probe()]

    def one(traced: bool):
        with patched if traced else contextlib.nullcontext():
            workload.tracer = tracer if traced else None
            span = tracer.begin("pass") if traced else None
            t0 = time.perf_counter()
            out = workload.run_pass()
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.end(span)
        ops.extend(workload.check(out))
        if not tracer:
            probes.append(calibrate.probe())

    stop = time.perf_counter() + seconds
    order = [False] if tracer is None else [False, True]
    while True:
        for traced in order:
            one(traced)
        order.reverse()
        if time.perf_counter() >= stop:
            return walls[False], walls[True], probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--out", required=True, help="directory for the trace and scratch files")
    args = ap.parse_args(argv)

    import hwsched

    if Path(hwsched.__file__).resolve().parent != ROOT / "src" / "hwsched":
        print(f"error: imported hwsched from {hwsched.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from layers import PER_LAYER, Patched, layer_metrics
    from spans import Tracer, load
    from workloads import WORKLOADS

    out_dir = Path(args.out)
    scratch = out_dir / f"scratch-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    patched = Patched(tracer) if tracer else contextlib.nullcontext()
    try:
        with patched:
            span = tracer.begin("setup") if tracer else None
            workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
            if span:
                tracer.end(span)
        ready_at = time.monotonic()
        # set-up is scaled by the machine's speed just after it
        setup_probe = statistics.median(calibrate.probe() for _ in range(SETUP_PROBES))
        raw_setup = ready_at - args.started_at
        setup = {"ready_at": ready_at, "raw_setup_s": raw_setup, "setup_probe_s": setup_probe,
                 "setup_s": calibrate.scaled(raw_setup, setup_probe)}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        ops = []
        plain, traced, probes = timed_passes(workload, args.seconds, ops, tracer, patched)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        doc = dict(setup, pass_walls=plain, probes=probes, machine=machine())
        if args.workload == "mc_policy":
            ops.append(workload.determinism())
        if tracer is None:
            units = END_TO_END
            metrics = {"wall_s": statistics.median(
                           calibrate.scaled(w, (probes[i] + probes[i + 1]) / 2) for i, w in enumerate(plain)),
                       "peak_rss_mb": peak_rss_mb}
            doc["raw_wall_s"] = statistics.median(plain)
        else:
            units = dict(PER_LAYER)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                     "traced_passes": len(traced)})
            _, spans = load(trace_path)
            metrics = layer_metrics(spans, len(traced))
            metrics["trace.overhead_frac"] = (statistics.median(traced)
                                              / statistics.median(plain) - 1.0)
            unconverged_or_failed = sum(1 for op in ops if not op.ok or op.unconverged)
            metrics["failed_ops_frac"] = unconverged_or_failed / len(ops)
            doc["trace_file"] = str(trace_path)
            doc["traced_walls"] = traced
        doc["metrics"] = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}
        doc["ops"] = [asdict(op) for op in ops]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
