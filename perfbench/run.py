"""whitenet benchmark: one workload per run, driven through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports whitenet from
``src/``.  With ``--trace 0`` it repeats the workload's operation for
``--seconds`` seconds, with the workload's set-up repeated between
operations, and reports the end-to-end metrics.  With ``--trace 1`` it
repeats rounds of the operation for ``--seconds`` seconds: untraced and
serial, untraced with the workload's own job count when that is larger,
and serial with span hooks installed; it reports the per-layer metrics.
Every operation checks its outputs; all operations of a run, traced or not,
must write byte-identical artifacts.  The last line of standard output is
one JSON object with the result.
"""

import os
import sys

# Single-threaded BLAS, fixed before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metadata():
    """Environment of the run; recorded, never gated."""
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, names in os.walk(SRC):
        dirnames.sort()
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "commit": read_commit(),
    }


def read_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def peak_rss_mb():
    """Peak resident set of this process plus any children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(workload, args, op_dir, setup_dir):
    # The first set-up builds what the operations use.  The others are
    # spread between the operations over the measured seconds, so their
    # median samples the machine's speed across the run, not one moment.
    setup_times = [workload.setup(args.seed, setup_dir)]
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        ops.append(workload.op(args.seed, op_dir, workload.jobs))
        due = len(setup_times) * args.seconds / workload.setup_reps
        if (len(setup_times) < workload.setup_reps
                and time.perf_counter() - start >= due):
            setup_times.append(workload.setup(args.seed, setup_dir))
    while len(setup_times) < workload.setup_reps:
        setup_times.append(workload.setup(args.seed, setup_dir))
    walls = [op.wall for op in ops]
    if workload.report_mean:
        wall = sum(walls) / len(walls)
        rate = sum(op.items for op in ops) / sum(walls)
    else:
        wall = layers.p50(walls)
        rate = layers.p50([op.items / op.wall for op in ops])
    metrics = {
        "setup_s": (layers.p50(setup_times), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return ops, setup_times, metrics


def per_layer(workload, args, op_dir):
    # Each round runs the operation untraced and serially, with the
    # workload's own job count when that is larger, and then traced and
    # serially, so drift in machine speed hits all three alike.
    tracer = Tracer()
    serial, parallel, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        serial.append(workload.op(args.seed, op_dir, 1))
        if workload.jobs > 1:
            parallel.append(workload.op(args.seed, op_dir, workload.jobs))
        tracer.install()
        try:
            traced.append(workload.op(args.seed, op_dir, 1, tracer))
        finally:
            tracer.uninstall()
    if tracer.missing:
        print(f"missing hooks: {', '.join(tracer.missing)}", file=sys.stderr)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    ops = serial + parallel + traced
    metrics = layers.layer_metrics(
        tracer.spans, tracer.missing_spans(),
        traced_walls=[op.wall for op in traced],
        serial_walls=[op.wall for op in serial],
        parallel_walls=[op.wall for op in parallel],
        attempted=sum(op.attempted for op in ops),
        failed=sum(op.failed for op in ops),
        shapes=reference_shapes(workload))
    return ops, metrics


def reference_shapes(workload):
    """(lb, d_in, lf, d_out) of the workload's reference system."""
    from whitenet.training import prepare_data

    lb, lf = workloads.LOOKBACK, workloads.LOOKFORWARD
    train = prepare_data(workload.system, lb=lb, lf=lf)["train"]
    return lb, train.d_in, lf, train.d_out


def run(args):
    with open(os.path.join(HERE, "targets.json")) as fh:
        workload = workloads.build(args.workload, json.load(fh))
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        setup_dir = os.path.join(work, "setup")
        op_dir = os.path.join(work, "op")
        if args.trace:
            setup_times = [workload.setup(args.seed, setup_dir)]
            ops, metrics = per_layer(workload, args, op_dir)
        else:
            ops, setup_times, metrics = end_to_end(workload, args, op_dir,
                                                   setup_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)   # only when no other run is using it
        except OSError:
            pass
    identical = all(op.artifacts == ops[0].artifacts for op in ops)
    if not identical:
        print("operations of this run wrote different artifacts", file=sys.stderr)
    failed = sum(op.failed for op in ops)
    result = {
        "correct": identical and failed == 0,
        "attempted": sum(op.attempted for op in ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "op_walls": [op.wall for op in ops], "setup_times": setup_times,
              "meta": metadata(), "result": result}
    path = os.path.join(
        OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "whitenet", "cli.py")):
        print(f"no whitenet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    record = run(args)
    result = record["result"]
    print(f"# meta {json.dumps(record['meta'], sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(record['op_walls'])} "
          f"operations, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"{name:<40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
