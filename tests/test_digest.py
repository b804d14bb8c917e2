"""Byte-identity gate: SHA-256 of training, eval, gradcheck and simulate
output, compared with the digests committed in ``digests.json``.

Covered: every artifact of small dense/rnn/lstm seed matrices trained one
seed at a time and as one 3-member stack (with a patience at which members
stop at different epochs), the ``eval --aggregate`` reports of both, the
gradcheck worst errors, and simulator trajectories of all three systems.

Bits are a property of the numpy build and its BLAS, so the digest file
records the build it was taken on; on any other build the test skips and
names the recorded one.  A change that means to alter output bits rewrites
the file with

    PYTHONPATH=src python tests/test_digest.py --write

and says why in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import re
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from whitenet.cli import main
from whitenet.gradcheck import run_suites
from whitenet.numerics import RngState
from whitenet.simulators import SYSTEMS, default_params, generate_actuation, simulate
from whitenet.training import TrainConfig, run_matrix

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "digests.json")
ARCHS = ("dense", "rnn", "lstm")
SEEDS = [1, 2, 3]
JOBS = (1, 3)
# patience 1 over 4 epochs at these rates: the seeds of every arch stop at
# different epochs, so members leave their stack early
_BASE = TrainConfig(max_epochs=4, plateau_patience=1, early_stop_patience=1,
                    dropout=0.1)
TRAIN = {"dense": replace(_BASE, lr0=0.3, batch=2048),
         "rnn": replace(_BASE, lr0=0.3, batch=2048),
         "lstm": replace(_BASE, lr0=1.0, batch=1024)}
GRADCHECK_INSTANCES = 3
SIM_STEPS = 300
# backlash is digested from its default start (at rest) alone: a custom
# start would add digests that the committed file does not hold
SIM_INITS = {"pendulum": [None, (0.3, -1.0)],
             "double_pendulum": [None, (2.0, 0.5, -1.0, 1.5)],
             "backlash": [None]}


def build():
    """The numpy build and the CPU features that decide output bits."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:   # numpy < 1.26 has no machine-readable config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "machine": platform.machine(),
            "blas": blas.get("openblas configuration", blas.get("name")),
            "simd": config.get("SIMD Extensions", {}).get("found")}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _tree(root, prefix):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as fh:
                out[f"{prefix}/{rel}"] = _sha(fh.read())
    return out


def _train_and_eval(tmp):
    """Digests of the run dirs and eval reports; epochs run per run name."""
    digests = {}
    epochs = {}
    for jobs in JOBS:
        runs = os.path.join(tmp, f"jobs{jobs}")
        records = [rec for arch in ARCHS for rec in run_matrix(
            ["pendulum"], [arch], [1.0], SEEDS, cfg_base=TRAIN[arch],
            out_dir=runs, jobs=jobs)]
        for rec in records:
            assert rec.ok, rec.error
            epochs[rec.config.run_name] = rec.epochs_run
        reports = os.path.join(tmp, f"eval{jobs}")
        run_dirs = sorted(os.path.join(runs, d) for d in os.listdir(runs))
        assert main(["eval", *run_dirs, "--aggregate", "--out", reports]) == 0
        digests.update(_tree(runs, f"train/jobs{jobs}"))
        digests.update(_tree(reports, f"eval/jobs{jobs}"))
    return digests, epochs


def _gradcheck():
    out = {}
    for res in run_suites(n_instances=GRADCHECK_INSTANCES):
        line = re.sub(r", [0-9.]+s\)$", ")", res.line())
        out[f"gradcheck/{res.component}"] = _sha(
            f"{line} {res.worst!r}".encode())
    return out


def _simulate():
    out = {}
    for system in SYSTEMS:
        params = default_params(system)
        for noise in (0.0, 0.05):
            for init in SIM_INITS[system]:
                rng = RngState(11)
                if system == "double_pendulum":
                    actions = np.zeros((SIM_STEPS, 0))
                else:
                    actions = generate_actuation(rng, SIM_STEPS, 1.0, 5)
                traj = simulate(system, params, actions, noise, rng,
                                init_state=init)
                key = f"simulate/{system}/noise{noise:g}/" + \
                    ("default" if init is None else "custom")
                out[key] = _sha(traj.states.tobytes() + traj.actions.tobytes())
    return out


def compute():
    with tempfile.TemporaryDirectory() as tmp:
        digests, epochs = _train_and_eval(tmp)
    digests.update(_gradcheck())
    digests.update(_simulate())
    return digests, epochs


def test_output_bits_match_recorded_digests():
    with open(DIGEST_FILE) as fh:
        recorded = json.load(fh)
    if recorded["build"] != build():
        pytest.skip(f"digests were recorded on {recorded['build']}, "
                    f"this is {build()}")
    digests, epochs = compute()
    for arch in ARCHS:
        ran = [epochs[f"pendulum_{arch}_lam1_seed{s}"] for s in SEEDS]
        assert len(set(ran)) > 1, f"{arch} seeds all ran {ran[0]} epochs"
    for jobs in JOBS[1:]:
        for key, value in digests.items():
            if key.startswith("train/jobs1/"):
                assert digests[key.replace("jobs1", f"jobs{jobs}", 1)] == value
    changed = sorted(k for k in set(digests) | set(recorded["digests"])
                     if digests.get(k) != recorded["digests"].get(k))
    assert not changed, f"{len(changed)} output(s) changed bits: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_digest.py --write")
    digests, _ = compute()
    with open(DIGEST_FILE, "w") as fh:
        json.dump({"build": build(), "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
