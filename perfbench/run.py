"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload vehicle-mlp --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics and writes them, with the raw
figures and the per-call times, to perfbench/out/e2e-<workload>-seed<n>.json;
--trace 1 wraps the public calls of each flowstate module, prints the
per-layer metrics and writes the per-layer table, with the tracing overhead,
to perfbench/out/.  Run from the repository root; the program is imported
from ./src.
"""

import os
import time


def _since_process_start() -> float:
    """Seconds since the kernel started this process (Linux /proc; 0 elsewhere)."""
    try:
        with open("/proc/self/stat") as f:
            ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - ticks / os.sysconf("SC_CLK_TCK"))


# The process's start on perf_counter's clock: set-up is timed from here.
STARTED = time.perf_counter() - _since_process_start()

# One BLAS thread: the step sizes here are too small to gain from more, and
# a single thread keeps run-to-run spread low on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import flowstate
    except ImportError as e:
        raise SystemExit(f"error: cannot import flowstate from {ROOT / 'src'}: {e}")
    if Path(flowstate.__file__).resolve().parent != ROOT / "src" / "flowstate":
        raise SystemExit(f"error: flowstate imported from {flowstate.__file__}, not {ROOT / 'src'}")


def _overhead(workload: str, seed: int, traced: dict) -> dict:
    """Traced minus untraced end-to-end metrics, as a share of the untraced.

    Against the untraced run of the same seed when there is one, which
    leaves the wrappers' cost alone; else against the latest untraced run of
    the workload, whose other inputs add run-to-run spread.
    """
    path = OUT / f"e2e-{workload}-seed{seed}.json"
    if not path.exists():
        runs = sorted(OUT.glob(f"e2e-{workload}-seed*.json"), key=lambda p: p.stat().st_mtime)
        if not runs:
            return {"note": f"no untraced run of {workload} in this checkout"}
        path = runs[-1]
    plain = json.loads(path.read_text())
    return {
        "untraced_seed": plain["seed"],
        "untraced": plain["metrics"],
        "traced": traced,
        "change": {k: (traced[k] - v) / v for k, v in plain["metrics"].items() if k in traced},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import pipeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workdir = OUT / f"work-{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # The program's own console lines go to stderr, away from the result.
        with contextlib.redirect_stdout(sys.stderr):
            res = pipeline.run(w, args.seed, args.seconds, workdir, STARTED, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in res.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if tracer is None:
        metrics = {k: {"value": res.metrics[k], "unit": u} for k, u in end_to_end.items()}
        (OUT / f"e2e-{w.name}-seed{args.seed}.json").write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "metrics": res.metrics,
            "raw": res.extras["raw"], "slowdown": res.extras["slowdown"],
            "calls_ms": res.extras["calls_ms"],
        }, indent=1) + "\n")
    else:
        layers = tracing.layer_metrics(tracer, w, res.extras)
        missing = sorted(set(per_layer) - set(layers))
        if missing:
            raise RuntimeError(f"traced run produced no value for {missing}")
        metrics = {k: {"value": layers[k]["value"], "unit": u} for k, u in per_layer.items()}
        table = OUT / f"trace-{w.name}-seed{args.seed}.json"
        table.write_text(json.dumps({
            "workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "work": res.extras["work"], "layers": layers,
            "tracing_overhead": _overhead(w.name, args.seed, res.metrics),
        }, indent=1) + "\n")
        print(f"per-layer table: {table}", file=sys.stderr)
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0 if not res.failures else 1


if __name__ == "__main__":
    sys.exit(main())
