"""One benchmark process: set up a workload, run it, check it, report.

Started by ``run.py`` in a fresh interpreter with the BLAS thread cap
already in its environment; not meant to be run by hand.  Writes its
record as JSON to the ``--result`` path.

Set-up time runs from the first statement of this file, before numpy,
scipy and lrlab are imported, to the end of input generation.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_runtime() -> list:
    """Config string and live thread count of every OpenBLAS loaded."""
    out = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        rec = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            rec.update(config=config().decode(), threads=int(threads()))
            break
        out.append(rec)
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):  # older releases print instead of returning a dict
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_thread_cap": {k: os.environ.get(k) for k in BLAS_ENV},
        "openblas_runtime": _openblas_runtime(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.special  # noqa: F401

    import lrlab.cli  # noqa: F401  (pulls in every lrlab module)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.inputs(args.seed, args.workdir)
    setup_s = time.perf_counter() - T_START
    record = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.result, record)
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()

    rounds = []  # per round: wall seconds, per-op seconds, traced flag, layer metrics
    outputs = []  # per round: one output per spec, None where the operation raised
    first_spans = None
    attempted = failed = 0
    errors = []
    started = time.perf_counter()
    while True:
        # a traced run alternates traced and untraced rounds, so the
        # tracing overhead is measured on the same process and inputs; the
        # first round also pays first-call costs, which the traced side
        # takes, so the overhead errs high rather than low
        traced = tracer is not None and len(rounds) % 2 == 0
        round_dir = tempfile.mkdtemp(prefix=f"round{len(rounds)}-", dir=args.workdir)
        if traced:
            tracer.reset()
            tracer.install()
        outs, op_times = [], []
        t0 = time.perf_counter()
        try:
            for spec in specs:
                attempted += 1
                t_op = time.perf_counter()
                try:
                    outs.append(workload.run(spec, round_dir))
                except Exception:
                    failed += 1
                    outs.append(None)
                    errors.append(f"{spec.label}: {traceback.format_exc()}")
                op_times.append(time.perf_counter() - t_op)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if traced and first_spans is None:
            first_spans = tracer.spans
        outputs.append(outs)
        rounds.append(
            {"wall_s": wall, "op_s": op_times, "traced": traced, "layers": tracer.metrics() if traced else None}
        )
        done = time.perf_counter() - started >= args.seconds
        if done and (tracer is None or len(rounds) % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = sorted({p for outs in outputs for p in workload.check(specs, outs)})
    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    record.update(
        {
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "problems": problems,
            "round_wall_s": [r["wall_s"] for r in rounds],
            "op_labels": [spec.label for spec in specs],
            "round_op_s": [r["op_s"] for r in rounds],
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
            "environment": environment(),
        }
    )
    if tracer is not None:
        traced_rounds = [r["layers"] for r in rounds if r["traced"]]
        # counts are equal in every round; median_low keeps them integers
        layers = {
            name: (statistics.median_low if name.endswith("_calls") else statistics.median)(
                r[name] for r in traced_rounds
            )
            for name in traced_rounds[0]
        }
        traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / record["wall_s"] - 1.0)
        record["layers"] = layers
        record["layer_trace"] = {"functions": tracing.span_summary(first_spans), "spans": first_spans}
    _write(args.result, record)
    return 0


def _write(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)


if __name__ == "__main__":
    sys.exit(main())
