"""Run one loopfock benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-fock64 --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src``.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` the workload runs twice with
the same inputs, untraced and then traced, and the metrics are the per-layer
ones of the traced pass plus the tracing overhead (traced minus untraced);
reports of the second pass must be byte-identical to those of the first.
The lines above it repeat every metric with its unit and sample count and
record the environment.  See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("verify-fock16", "verify-fock64", "lift-fock256")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Per-workload names printed beside the uniform request metrics.
ALIASES = {
    "report": {"report_s_p50": ("request_ms_p50", 1e-3, "s")},
    "lift": {"lift_ms_p50": ("request_ms_p50", 1.0, "ms"),
             "lift_ms_p90": ("request_ms_p90", 1.0, "ms"),
             "lifts_per_s": ("requests_per_s", 1.0, "1/s")},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def show(name, value, unit, note=""):
    print(f"  {name:44s} {value:14.6g} {unit:6s} {note}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "loopfock", "__init__.py")):
        print(f"perfbench: no loopfock sources under {src}", file=sys.stderr)
        return 2
    # One process generates all load; BLAS may use every core it may run on.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, src)
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    print(f"loopfock benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print("environment:", json.dumps(environment(nproc), sort_keys=True))

    workload = workloads.make_workload(args.workload, OUT_DIR)
    # A traced run compares one pass with the next, so its untraced pass
    # needs only one request; this keeps a verify-fock64 run under 3 minutes.
    plain = workloads.measure(workload, args.seed, seconds=args.seconds,
                              min_requests=1 if args.trace else None)
    passes = [plain]
    if not plain.latencies:
        print("perfbench: no request completed", file=sys.stderr)
        return 1
    e2e = plain.end_to_end()
    e2e["peak_rss_mb"] = (plain.peak_rss_mb, "MB")
    count = len(plain.latencies)
    kind = workload.request_kind
    print(f"end-to-end ({count} {kind} requests in {plain.elapsed:.3f} s, "
          f"{workloads.SETUP_REPEATS} setups):")
    for name, (value, unit) in e2e.items():
        note = {"setup_s": f"n={workloads.SETUP_REPEATS}",
                "peak_rss_mb": f"after {plain.rss_requests} requests"}
        show(name, value, unit, note.get(name, f"n={count}"))
    for alias, (name, scale, unit) in ALIASES[kind].items():
        show(alias, e2e[name][0] * scale, unit, f"n={count}")

    metrics = e2e
    if args.trace:
        with tracing.Tracer() as tracer:
            traced = workloads.measure(workload, args.seed, requests=count, tracer=tracer)
        passes.append(traced)
        if tracer.missing:
            print("perfbench: functions not found, reported as zero:", ", ".join(tracer.missing),
                  file=sys.stderr)
        metrics = tracer.layer_metrics()
        metrics["trace.requests"] = (count, "count")
        for name, (value, unit) in traced.end_to_end().items():
            metrics[f"trace.overhead.{name}"] = (value - e2e[name][0], unit)
        print(f"per-layer (traced pass, same {count} requests):")
        for name, (value, unit) in metrics.items():
            show(name, value, unit)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans_payload(), fh)
        print(f"spans written to {spans_path}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [problem for p in passes for problem in p.problems]
    for problem in problems:
        print(f"perfbench: incorrect output: {problem}", file=sys.stderr)
    show("failed_frac", failed / attempted, "", f"{failed} of {attempted} operations")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
