"""lrlab benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 15 --trace 0

Runs the workload in a fresh interpreter with BLAS threads capped at the
number of usable CPUs, then starts more fresh interpreters that only set
up, and reports the median set-up time.  With ``--trace 0`` it reports the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with ``--trace 1`` the
per-layer metrics of the traced rounds and the tracing overhead.  The last
line of standard output is the JSON result; the full record, with the
environment, every round time and the trace, goes to perfbench/out/.
Exits 1 without a result when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify-sweep", "perturbed-window", "flow-transport", "demo-suite")
SETUP_SAMPLES = 5  # the run's own set-up plus four set-up-only processes
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_pct": "%"}


def _child(args, workdir: str, result: str, env: dict, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", result,
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(nproc)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        try:
            record = _child(args, workdir, os.path.join(workdir, "run.json"), env, False)
            setups = [record["setup_s"]]
            for k in range(SETUP_SAMPLES - 1):
                path = os.path.join(workdir, f"setup{k}.json")
                setups.append(_child(args, workdir, path, env, True)["setup_s"])
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
            print(f"benchmark failed: {err}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["setup_samples_s"] = setups
    record["setup_s"] = statistics.median(setups)
    record["environment"]["nproc"] = nproc
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    raw = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in record["layers"].items()}
    else:
        metrics = {k: {"value": record[k], "unit": u} for k, u in END_TO_END.items()}
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    for err in record["errors"]:
        print(f"operation failed: {err}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds: {len(record['round_wall_s'])}; raw record: {os.path.relpath(raw)}")
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
