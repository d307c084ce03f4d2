"""Seeded end-to-end benchmark of the hatedetect CLI, with an optional
traced run that times each module from outside.

Run from the repository root:

    python3 benchmarks/run.py --workload train_tweets --seed 1 --seconds 25 --trace 0

Each invocation runs one workload in this one process with one
closed-loop client. Inputs are generated from --seed; the CLI only sees
the generated files. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it measures half the time untraced and half traced, and
reports the per-layer metrics plus the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object.
BENCHMARK.json lists the workloads and the metrics, in the order printed.

The inputs, and the checkpoint serve_mixed starts from, are made in a
child process before measuring starts, so the peak resident set of this
process covers the measured verbs and not the generator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# BLAS runs one thread: two threads on a shared host stall whenever either
# CPU is taken, which makes a GEMM's time swing far more than one thread's.
MAX_BLAS_THREADS = 1
# Wall time of a traced verb call that no layer span covers (the verb
# handler's own code, argument parsing, dispatch) may be at most this share
# of each measured call, or this many seconds; measured calls stay below 1%.
# Set-up's calls (prepare, dry runs) are short, and config loading, which no
# layer covers, is 2-8% of each. One such call can lose a few milliseconds to
# a busy host, so they are gated together: the share of their summed wall
# time, or the slack once per call.
UNCOVERED_SHARE = 0.05
UNCOVERED_SLACK_S = 0.02
SETUP_UNCOVERED_SHARE = 0.15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input and model sizes; tiny is for the smoke test")
    parser.add_argument("--workdir", default=".perfbench",
                        help="scratch directory for inputs, runs and results")
    parser.add_argument("--prepare-into", help=argparse.SUPPRESS)  # the child process, see prepare()
    return parser.parse_args(argv)


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": git_commit(Path.cwd()),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def prepare(args, work: Path, client) -> dict:
    """Run the workload's prepare() in a child process; its state. The
    child's verb calls and gates count as operations of `client`."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--scale", args.scale, "--prepare-into", str(work)],
    )
    if done.returncode != 0:
        raise RuntimeError(f"preparing the inputs exited {done.returncode}")
    prepared = json.loads((work / "prepared.json").read_text(encoding="utf-8"))
    client.attempted += prepared["attempted"]
    client.failures += prepared["failures"]
    return prepared["state"]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "hatedetect" / "__init__.py").is_file():
        print("error: src/hatedetect not found; run from the repository root", file=sys.stderr)
        return 2
    threads = max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)  # before numpy loads BLAS
    sys.path.insert(0, str(src))

    import hatedetect

    if Path(hatedetect.__file__).resolve().parent != (src / "hatedetect").resolve():
        print(f"error: imported hatedetect from {hatedetect.__file__}, not {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    scale = workloads.SCALES[args.scale]
    if args.prepare_into:
        work = Path(args.prepare_into)
        workload = workloads.WORKLOADS[args.workload](args.seed, scale, work)
        client = workloads.Client()
        workload.prepare(client)
        prepared = {"state": workload.state, "attempted": client.attempted, "failures": client.failures}
        (work / "prepared.json").write_text(json.dumps(prepared), encoding="utf-8")
        return 0
    workdir = Path(args.workdir).resolve()
    work = workdir / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = workdir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    env = environment(args.seed, threads)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scale, work)
        clients = [workloads.Client()]
        workload.state = prepare(args, work, clients[0])
        if not args.trace:
            measured = workload.measure(args.seconds, clients[0])
            layers = traced = None
        else:
            measured = workload.measure(args.seconds / 2, clients[0])
            tracer = spans.Tracer()
            clients.append(workloads.Client(tracer))
            tracer.install()
            try:
                traced = workload.measure(args.seconds / 2, clients[1])
            finally:
                tracer.uninstall()
            tracer.write(results_dir / f"{stem}-spans.jsonl")
            layers = spans.layer_metrics(tracer)
            layers["trace.overhead_share"] = (measured["throughput_best_per_s"]["value"]
                                              / traced["throughput_best_per_s"]["value"] - 1.0)
            layers["trace.uncovered_share"] = check_self_times(tracer, clients[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured["peak_rss_mb"] = workloads.metric(peak, "MB", 1, "peak_rss_mb")
    attempted = sum(c.attempted for c in clients)
    failures = [f for c in clients for f in c.failures]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}  "
          f"seconds {args.seconds:g}")
    print("environment " + json.dumps(env))
    report_end_to_end(measured, traced)
    print(f"  {'failed_share':<18}{len(failures) / max(1, attempted):>14.6g} {'ratio':<6} "
          f"n={attempted:<4} ({len(failures)} of {attempted} operations failed)")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if layers is None:
        values = {m["name"]: (measured[m["name"]]["value"], m["unit"]) for m in SPEC["end_to_end"]}
    else:
        values = {m["name"]: (layers[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
        for name, (value, unit) in values.items():
            print(f"  {name:<32}{value:>16.6g} {unit}")
    # A metric with no successful sample is NaN, which JSON cannot carry;
    # such a run has failed operations and is not correct anyway.
    metrics = {n: {"value": v if math.isfinite(v) else 0.0, "unit": u} for n, (v, u) in values.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    detail = {**result, "environment": env, "end_to_end": measured, "traced_end_to_end": traced,
              "failures": failures}
    (results_dir / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def report_end_to_end(measured: dict, traced: dict | None) -> None:
    for name, m in measured.items():
        line = f"  {name:<18}{m['value']:>14.6g} {m['unit']:<6} n={m['n']:<4} ({m['alias']}"
        if "percentile" in m:
            line += f", p{m['percentile']:.0f}"
        line += ")"
        if traced is not None and name in traced:
            delta = traced[name]["value"] - m["value"]
            line += f"  traced {traced[name]['value']:.6g} ({delta:+.4g})"
        print(line)


def check_self_times(tracer, client) -> float:
    """The self times of the layer spans of each traced verb call must add
    up to its wall time, less what no layer covers. Returns the uncovered
    share of the measured verb calls' time (not prepare, not dry runs)."""
    import spans

    covered = spans.covered_by_request(tracer)
    timed = tracer.timed_requests() & client.walls.keys()
    for request, wall in client.walls.items():
        gap = wall - covered.get(request, 0.0)
        limit = max(UNCOVERED_SHARE * wall, UNCOVERED_SLACK_S) if request in timed else wall
        client.check(-1e-6 <= gap <= limit,
                     f"layer self times of request {request} add up to its wall time "
                     f"({covered.get(request, 0.0):.4f} of {wall:.4f} s)")
    setup = client.walls.keys() - timed
    setup_wall = sum(client.walls[r] for r in setup)
    setup_gap = setup_wall - sum(covered.get(r, 0.0) for r in setup)
    client.check(setup_gap <= max(SETUP_UNCOVERED_SHARE * setup_wall, UNCOVERED_SLACK_S * len(setup)),
                 f"set-up calls leave at most {SETUP_UNCOVERED_SHARE:.0%} of their wall time, or "
                 f"{UNCOVERED_SLACK_S} s per call, uncovered ({setup_gap:.4f} of {setup_wall:.4f} s, "
                 f"{len(setup)} calls)")
    wall = sum(client.walls[r] for r in timed)
    return (wall - sum(covered.get(r, 0.0) for r in timed)) / wall if wall else 0.0


if __name__ == "__main__":
    sys.exit(main())
