"""The four benchmark workloads, each driving the public whitenet CLI.

A workload has a set-up step, which a run repeats ``setup_reps`` times so
its median can be reported, and an operation that the run repeats for its
measured seconds.  The first set-up builds what the operations use; later
ones only time the same work again.  A workload whose ``report_mean`` is
true reports the mean operation over the run instead of the median one.
Every operation checks its own outputs and returns how many units it
attempted, how many failed, the work it did and the bytes of the artifacts
it wrote, so repeated operations can be compared byte for byte.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field

from layers import GRADCHECK_COMPONENTS

# A fit runs exactly this many epochs: early-stop patience equals the epoch
# count, so the work done cannot depend on last-bit changes to the loss.
EPOCHS = 10
LOOKBACK = LOOKFORWARD = 10


@dataclass
class OpResult:
    wall: float          # seconds inside whitenet.cli.main
    items: int           # work units: windows (train, eval) or instances
    attempted: int       # checked units: fits, reports or gradient suites
    failed: int
    artifacts: dict = field(default_factory=dict)   # name -> bytes


def call_cli(argv, tracer=None):
    """Run ``whitenet.cli.main(argv)`` in process; return (rc, wall, stdout)."""
    from whitenet.cli import main

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = main(argv)
        else:
            rc = tracer.call("cli.main", main, argv)
    return rc, time.perf_counter() - start, buf.getvalue()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class TrainWorkload:
    """``whitenet train`` over a list of (arch, loss, lambda) arms."""

    setup_reps = 9
    report_mean = False

    def __init__(self, system, arms, n_seeds, jobs, targets):
        self.system = system
        self.arms = arms
        self.n_seeds = n_seeds
        self.jobs = jobs
        self.targets = targets     # arch -> highest accepted best val loss
        self.train_windows = 0

    def _seeds(self, seed):
        return [self.n_seeds * seed + i for i in range(self.n_seeds)]

    def setup(self, seed, work_dir):
        """Build the training data the fits will use; return its seconds."""
        from whitenet.training import prepare_data

        start = time.perf_counter()
        data = prepare_data(self.system, lb=LOOKBACK, lf=LOOKFORWARD,
                            data_seed=seed)
        took = time.perf_counter() - start
        self.train_windows = data["train"].n
        return took

    def op(self, seed, out_dir, jobs, tracer=None):
        fresh_dir(out_dir)
        seeds = self._seeds(seed)
        wall = 0.0
        rcs = []
        for arch, loss, lam in self.arms:
            argv = ["train", "--system", self.system, "--model", arch,
                    "--loss", loss, "--dropout", "0", "--lr", "0.02",
                    "--seeds", ",".join(str(s) for s in seeds),
                    "--data-seed", str(seed), "--jobs", str(jobs),
                    "--epochs", str(EPOCHS),
                    "--early-stop-patience", str(EPOCHS),
                    "--out", out_dir]
            if loss != "mse":
                argv += ["--lambda", repr(lam)]
            rc, took, _ = call_cli(argv, tracer)
            wall += took
            rcs.append(rc)
        attempted = len(self.arms) * len(seeds)
        failed = 0
        artifacts = {}
        runs = sorted(d for d in os.listdir(out_dir)
                      if os.path.isdir(os.path.join(out_dir, d)))
        for run in runs:
            run_dir = os.path.join(out_dir, run)
            try:
                for fname in ("record.json", "losses.csv", "checkpoint.json"):
                    artifacts[f"{run}/{fname}"] = _read(os.path.join(run_dir, fname))
                record = json.loads(artifacts[f"{run}/record.json"])
            except (OSError, ValueError):
                failed += 1
                continue
            if not self._fit_ok(record):
                failed += 1
        failed += max(0, attempted - len(runs))
        if any(rc != 0 for rc in rcs):
            failed = max(failed, 1)
        items = self.train_windows * EPOCHS * attempted
        return OpResult(wall, items, attempted, min(failed, attempted), artifacts)

    def _fit_ok(self, record):
        arch = record.get("config", {}).get("arch")
        best = record.get("best_val_loss")
        return (record.get("error") is None
                and _finite(record.get("train_losses", [None]))
                and _finite(record.get("val_losses", [None]))
                and record.get("epochs_run") == EPOCHS
                and _finite([best])
                and best <= self.targets.get(arch, -math.inf))


_SYSTEMS = ("pendulum", "double_pendulum", "backlash")
_ARCHS = ("dense", "rnn", "lstm")
_EVAL_LAM = 0.02


class EvalWorkload:
    """``whitenet eval --aggregate`` over one 1-epoch run per system x arch."""

    system = "pendulum"
    jobs = 1
    setup_reps = 3          # each set-up makes 9 run dirs, about 2.5 s
    report_mean = False

    def __init__(self):
        self.run_dirs = []
        self.windows_per_pass = 0
        self.setups = 0

    def setup(self, seed, work_dir):
        """Make the 9 run dirs; the operations use the first set made."""
        root = fresh_dir(os.path.join(work_dir, f"runs{self.setups}"))
        self.setups += 1
        start = time.perf_counter()
        for system in _SYSTEMS:
            for arch in _ARCHS:
                # a failed fit leaves no checkpoint; eval then fails and
                # the operation counts it
                call_cli(["train", "--system", system, "--model", arch,
                          "--loss", "mse+ljb", "--lambda", repr(_EVAL_LAM),
                          "--dropout", "0", "--lr", "0.02",
                          "--seeds", str(seed), "--data-seed", str(seed),
                          "--epochs", "1", "--plateau-patience", "1",
                          "--early-stop-patience", "1", "--out", root])
        took = time.perf_counter() - start
        if self.run_dirs:
            return took
        self.run_dirs = sorted(
            os.path.join(root, d) for d in os.listdir(root)
            if os.path.isfile(os.path.join(root, d, "record.json")))
        self.windows_per_pass = 0
        for run_dir in self.run_dirs:
            with open(os.path.join(run_dir, "record.json")) as fh:
                manifests = json.load(fh)["datasets"]
            self.windows_per_pass += manifests["val"]["n"] + manifests["extrap"]["n"]
        return took

    def op(self, seed, out_dir, jobs, tracer=None):
        from whitenet.errors import ConfigError
        from whitenet.evaluation import load_report

        fresh_dir(out_dir)
        rc, wall, _ = call_cli(["eval", *self.run_dirs, "--aggregate",
                                "--out", out_dir], tracer)
        attempted = 2 * len(_SYSTEMS) * len(_ARCHS)
        if rc != 0:
            return OpResult(wall, self.windows_per_pass, attempted, attempted)
        failed = attempted - 2 * len(self.run_dirs)
        artifacts = {}
        for run_dir in self.run_dirs:
            run = os.path.basename(run_dir)
            for name in ("interp", "extrap"):
                path = os.path.join(out_dir, f"{run}_report_{name}.json")
                try:
                    raw = _read(path)
                    doc = json.loads(raw)
                    ok = (load_report(path).to_dict() == doc
                          and all(0.0 <= p <= 1.0 for p in doc["p_value"]))
                except (ConfigError, KeyError, OSError, TypeError, ValueError):
                    ok = False
                    raw = b""
                artifacts[f"{run}/{name}"] = raw
                if not ok:
                    failed += 1
        for fname in sorted(os.listdir(out_dir)):
            if fname.startswith("aggregate_") and fname.endswith(".json"):
                artifacts[fname] = _read(os.path.join(out_dir, fname))
        return OpResult(wall, self.windows_per_pass, attempted, failed, artifacts)


_SUITE_LINE = re.compile(
    r"^(pass|FAIL)\s+(\S+)\s+worst rel err (\S+) over (\d+) instances")


# Instances per suite in one gradcheck operation.  The CLI default is 100
# (about 5 s); 10 give about 0.5 s, so the last operation of a run
# overshoots its measured seconds by little and the repeated set-ups can be
# spread finely between operations.
GRADCHECK_INSTANCES = 10


class GradcheckWorkload:
    """``whitenet gradcheck`` over all its components, 10 instances each.

    The instance set is the CLI's default one (gradcheck seed 0) whatever
    the workload seed: instance shapes are drawn at random, and between
    gradcheck seeds the total work differs by about 15%, more than the
    bound on the end-to-end times.  Each suite draws its instances in
    order, so these are the first 10 of the default 100.
    """

    system = "pendulum"
    jobs = 1
    components = GRADCHECK_COMPONENTS
    setup_reps = 9
    # Its operations are mostly interpreter overhead and follow the
    # machine's speed most closely; see "Why gradcheck-suite reports the
    # mean" in README.md.
    report_mean = True

    def setup(self, seed, work_dir):
        """Warm every suite's code path on a few instances; return seconds."""
        # a failing suite is counted by the operations, not here
        _, took, _ = call_cli(["gradcheck", "--instances", "3"])
        return took

    def op(self, seed, out_dir, jobs, tracer=None):
        rc, wall, out = call_cli(
            ["gradcheck", "--instances", str(GRADCHECK_INSTANCES)], tracer)
        seen = {}
        for line in out.splitlines():
            match = _SUITE_LINE.match(line)
            if match:
                seen[match.group(2)] = match.groups()
        failed = 0
        items = 0
        artifacts = {}
        for comp in self.components:
            if comp not in seen or seen[comp][0] != "pass":
                failed += 1
                continue
            _, _, worst, count = seen[comp]
            items += int(count)
            artifacts[comp] = worst.encode()
        if rc != 0:
            failed = max(failed, 1)
        return OpResult(wall, items, len(self.components), failed, artifacts)


def build(name, targets):
    """The named workload, with its accuracy targets from ``targets.json``."""
    if name == "train-whiten-matrix":
        return TrainWorkload(
            "pendulum",
            arms=[("dense", "mse+ljb", 0.02), ("rnn", "mse+ljb", 0.015)],
            n_seeds=2, jobs=2, targets=targets[name])
    if name == "train-lstm-baseline":
        return TrainWorkload(
            "double_pendulum", arms=[("lstm", "mse", 0.0)],
            n_seeds=1, jobs=1, targets=targets[name])
    if name == "eval-reports":
        return EvalWorkload()
    return GradcheckWorkload()


WORKLOAD_NAMES = ("train-whiten-matrix", "train-lstm-baseline",
                  "eval-reports", "gradcheck-suite")
