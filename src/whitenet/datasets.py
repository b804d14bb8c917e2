"""Windowed supervised datasets built from simulator trajectories.

A sample pairs a lookback window of observed channels plus actuations with
the lookforward window of future observed channels.  A dataset does not
store its windows: it holds a row index over window views of shared
storage.  A regime's trajectories are written once, one after another, into
an input series of (states ++ actions) and a state series, one step a
row; window r's inputs are the lb steps from input row r on, and its
targets the lf steps that follow them.  Each window is thus one row of a
strided view of its series, and the splits of a regime share the series.
A gathered window is flat and step-major: column = step * width + channel,
so a single channel of a sample is the strided slice ``row[channel::width]``.
Targets are future states, never residuals, and stay in raw physical units;
only inputs are normalized, with per-channel statistics fit on the training
split alone.
"""

import contextlib
import csv
import json
import math
import os
import reprlib
import tempfile
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import simulators
from .errors import ConfigError, CsvParseError, DomainError, ShapeError
from .numerics import RngState
from .simulators import (
    Trajectory,
    default_params,
    generate_actuation,
    simulate,
)

MANIFEST_FORMAT_VERSION = 1
TARGET_CONVENTION = "future states, raw units"
DESK_WINDOW = 10   # desk-scale lb = lf; desk_regimes' budgets assume it


class WindowedDataset:
    """The windows ``rows`` of input and target storage.

    A storage row holds one step of the channels (a series) or one whole
    window (a plain ``(N, lb * d_in)`` or ``(N, lf * d_out)`` matrix).
    Window r is the window's worth of values from storage row r on: row r
    of a strided view whose step is the storage's row width.  ``rows``
    defaults to every window of a plain matrix pair.
    """

    def __init__(self, inputs, targets, lb, lf, input_names, target_names,
                 meta=None, rows=None):
        self.input_storage = np.ascontiguousarray(inputs, dtype=np.float64)
        self.target_storage = np.ascontiguousarray(targets, dtype=np.float64)
        self.lb = lb
        self.lf = lf
        self.input_names = tuple(input_names)
        self.target_names = tuple(target_names)
        self.meta = {} if meta is None else meta
        self._input_windows = _window_view(self.input_storage, lb, self.d_in,
                                           "input")
        self._target_windows = _window_view(self.target_storage, lf,
                                            self.d_out, "target")
        if rows is None:
            if len(self._input_windows) != len(self._target_windows):
                raise ShapeError(
                    "inputs and targets must have equal row counts")
            rows = np.arange(len(self._input_windows))
        self.rows = np.asarray(rows, dtype=np.intp)

    @property
    def n(self):
        return len(self.rows)

    @property
    def d_in(self):
        return len(self.input_names)

    @property
    def d_out(self):
        return len(self.target_names)

    @property
    def inputs(self):
        """Every input window, gathered: ``(n, lb * d_in)``."""
        return self._input_windows[self.rows]

    @property
    def targets(self):
        """Every target window, gathered: ``(n, lf * d_out)``."""
        return self._target_windows[self.rows]

    def batch(self, index):
        """Inputs and targets of the windows ``rows[index]``, gathered.

        An integer index array of shape ``(k, m)`` gives ``(k, m, width)``
        arrays, as a stacked model's members take their batches.
        """
        rows = self.rows[index]
        return self._input_windows[rows], self._target_windows[rows]


def _window_view(storage, steps, channels, what):
    """Read-only view whose row r is the ``steps * channels`` values of
    ``storage`` from its row r on."""
    if storage.ndim != 2:
        raise ShapeError(f"{what}s must be 2-D")
    width, step = steps * channels, storage.shape[1]
    if step not in (channels, width):
        raise ShapeError(f"{what} width {step} is neither one step "
                         f"({channels}) nor one window ({width}) of channels")
    flat = storage.reshape(-1)
    count = max(0, (flat.size - width) // step + 1)
    return np.lib.stride_tricks.as_strided(
        flat, (count, width), (step * flat.itemsize, flat.itemsize),
        writeable=False)


def check_finite(spec, error):
    """Raise ``error`` naming a float field of dataclass ``spec`` that is
    nan or infinite, which passes every bound and strict JSON cannot hold."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type is float and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")


@dataclass
class RegimeSpec:
    """How to excite a system and how much data to record."""

    amplitude: float
    hold: int
    n_traj: int
    steps: int
    noise_sigma: float = 0.01
    seed: int = 0
    init_jitter: float = 0.1   # unactuated systems: initial-angle spread

    def __post_init__(self):
        check_finite(self, DomainError)
        if self.amplitude <= 0:
            raise DomainError(f"amplitude must be > 0, got {self.amplitude}")
        if self.hold < 1 or self.n_traj < 1 or self.steps < 1:
            raise DomainError("hold, n_traj, steps must all be >= 1")
        if self.noise_sigma < 0 or self.init_jitter < 0:
            raise DomainError("noise_sigma and init_jitter must be >= 0")
        if self.seed < 0:
            # a seed keys a random stream, and keys are non-negative
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass
class NormalizationStats:
    mean: np.ndarray   # (d_in,)
    std: np.ndarray    # (d_in,) floored at 1e-8

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        self.mean.flags.writeable = False    # stats are frozen after fit
        self.std.flags.writeable = False


def window(traj, lb, lf, run_steps=None):
    """Cut a trajectory into all its (lookback, lookforward) samples.

    The samples are windows of two series: the states and actions,
    side by side, and the states from step ``lb`` on.  A trajectory made of
    runs of ``run_steps`` steps each, one after the other, gets only the
    windows that lie within one run.
    """
    if lb < 1 or lf < 1:
        raise DomainError(f"lb and lf must be >= 1, got {lb}, {lf}")
    steps = traj.states.shape[0]
    run_steps = steps if run_steps is None else run_steps
    if run_steps < lb + lf:
        raise DomainError(
            f"trajectory length {run_steps} < lb + lf = {lb + lf}")
    n = run_steps - lb - lf + 1
    rows = (np.arange(0, steps, run_steps)[:, None]
            + np.arange(n)[None, :]).reshape(-1)
    return WindowedDataset(
        np.hstack([traj.states, traj.actions]), traj.states[lb:], lb, lf,
        tuple(traj.state_names) + tuple(traj.action_names),
        tuple(traj.state_names),
        meta={"dt": traj.dt}, rows=rows)


def regime_trajectories(system, spec):
    """Yield the trajectories of one excitation regime, one per child stream.

    Actuated systems draw a fresh actuation sequence per trajectory, the
    free-fall double pendulum instead jitters its initial angles by up to
    ``spec.init_jitter`` so that trajectories differ.  Observation noise
    draws from the same per-trajectory stream.  Bit-reproducible for equal
    seeds.
    """
    params = default_params(system)
    root = RngState(spec.seed)
    for i in range(spec.n_traj):
        traj_rng = root.child(i)
        if system == "double_pendulum":
            actions = np.zeros((spec.steps, 0))
            jitter = traj_rng.uniform(size=4, low=-spec.init_jitter,
                                      high=spec.init_jitter)
            jitter[1] = 0.0   # start at rest
            jitter[3] = 0.0
            init = tuple(np.add(simulators.DOUBLE_PENDULUM_INIT, jitter))
        else:
            actions = generate_actuation(traj_rng, spec.steps, spec.amplitude,
                                         spec.hold)
            init = None
        yield simulate(system, params, actions, spec.noise_sigma, traj_rng,
                       init_state=init)


def build_regime(system, spec, lb=DESK_WINDOW, lf=DESK_WINDOW):
    """Generate trajectories under one excitation regime and window them all.

    Every trajectory has ``spec.steps`` steps, so the regime has
    ``spec.n_traj * (spec.steps - lb - lf + 1)`` windows.  Each trajectory's
    states and actions are written once, in trajectory order, into the
    regime's state and action series, which :func:`window` cuts in runs of
    ``spec.steps``: no window straddles two trajectories.
    """
    states = actions = None
    for i, traj in enumerate(regime_trajectories(system, spec)):
        if states is None:
            total = spec.n_traj * spec.steps
            states = np.empty((total, traj.states.shape[1]))
            actions = np.empty((total, traj.actions.shape[1]))
        run = slice(i * spec.steps, (i + 1) * spec.steps)
        states[run] = traj.states
        actions[run] = traj.actions
    out = window(Trajectory(states, actions, traj.dt, traj.state_names,
                            traj.action_names), lb, lf, run_steps=spec.steps)
    out.meta.update({"system": system, "regime": asdict(spec),
                     "lb": lb, "lf": lf,
                     "target_convention": TARGET_CONVENTION})
    return out


def desk_regimes(system, data_seed=0):
    """Desk-scale (interpolation, extrapolation) regime pair for a system.

    Budgets target ~6000 interpolation windows (split 5000 train / 1000 val)
    and 5000 extrapolation windows at lb = lf = DESK_WINDOW.  Pendulum
    extrapolates in actuation amplitude (0.5 -> 2.0), the backlash motor in
    actuation frequency (hold shrunk 10x), and the free-fall double pendulum
    has no actuation axis, so its held-out set is fresh trajectories under
    new seeds.
    """
    if system == "pendulum":
        interp = RegimeSpec(amplitude=0.5, hold=5, n_traj=12, steps=519,
                            noise_sigma=0.01, seed=data_seed)
        extrap = RegimeSpec(amplitude=2.0, hold=5, n_traj=10, steps=519,
                            noise_sigma=0.01, seed=data_seed + 5000)
    elif system == "backlash":
        interp = RegimeSpec(amplitude=1.0, hold=100, n_traj=12, steps=519,
                            noise_sigma=0.01, seed=data_seed)
        extrap = RegimeSpec(amplitude=1.0, hold=10, n_traj=10, steps=519,
                            noise_sigma=0.01, seed=data_seed + 5000)
    elif system == "double_pendulum":
        interp = RegimeSpec(amplitude=1.0, hold=1, n_traj=12, steps=519,
                            noise_sigma=0.01, seed=data_seed)
        extrap = RegimeSpec(amplitude=1.0, hold=1, n_traj=10, steps=519,
                            noise_sigma=0.01, seed=data_seed + 5000)
    else:
        raise ConfigError(f"unknown system {system!r}; expected one of "
                          f"{', '.join(simulators.SYSTEMS)}")
    return interp, extrap


def split(ds, fractions, rng):
    """Disjoint, exhaustive, seed-deterministic row partition."""
    f_train, f_val = fractions
    if f_train < 0 or f_val < 0 or abs(f_train + f_val - 1.0) > 1e-9:
        raise DomainError(f"fractions must be >= 0 and sum to 1, got {fractions}")
    perm = rng.permutation(ds.n)
    n_train = int(round(f_train * ds.n))
    idx_train, idx_val = perm[:n_train], perm[n_train:]

    def take(idx):
        # the same storage, fewer rows: no window is copied
        return WindowedDataset(ds.input_storage, ds.target_storage, ds.lb,
                               ds.lf, ds.input_names, ds.target_names,
                               dict(ds.meta), rows=ds.rows[idx])
    return take(idx_train), take(idx_val)


def fit_stats(train):
    """Per-channel mean/std over every step of every training input window.

    The windows are gathered once, so a step that several windows share
    counts once in each of them."""
    if train.n == 0:
        raise DomainError("cannot fit normalization stats on an empty dataset")
    view = train.inputs.reshape(train.n * train.lb, train.d_in)
    mean = view.mean(axis=0)
    # numpy's own std steps, with the mean formed once: same bits
    d = view - mean
    d *= d
    std = np.maximum(np.sqrt(d.sum(axis=0) / view.shape[0]), 1e-8)
    return NormalizationStats(mean, std)


def normalize_apply(stats, *datasets):
    """Apply fitted stats to each dataset's inputs, in place; targets stay raw.

    Each distinct input storage array is overwritten with
    ``(x - mean) / std`` once, however many datasets and windows share it:
    one subtraction and one division per element, and no copy.
    """
    done = []
    for ds in datasets:
        storage = ds.input_storage
        if any(storage is seen for seen in done):
            continue
        done.append(storage)
        # a view of the storage, never a copy that would be normalized instead
        view = storage.reshape(-1, ds.d_in, copy=False)
        view -= stats.mean
        view /= stats.std


def normalize_fit_apply(train, *others):
    """Fit stats on train inputs and apply them to all, as
    :func:`normalize_apply` does.

    Returns ``(datasets, stats)`` with ``datasets[0]`` the train set,
    followed by the others in call order.
    """
    stats = fit_stats(train)
    datasets = [train, *others]
    normalize_apply(stats, *datasets)
    return datasets, stats


# ---------------------------------------------------------------------------
# CSV: the trajectory exchange format (also the ingestion path for real
# hardware logs).  Header `t,<states...>,<actions...>`; action column names
# start with "u"; values at 17 significant digits so floats round-trip.

# Relative tolerance on each time step.  Exported times are fl(i * dt), whose
# steps differ from dt by about n * 2.2e-16 relative over n rows.
_DT_RTOL = 1e-6


def csv_export(traj, path):
    if not isinstance(traj, Trajectory):
        raise ConfigError(f"cannot export {type(traj).__name__} as CSV")
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *traj.state_names, *traj.action_names])
        for i in range(traj.states.shape[0]):
            row = [i * traj.dt, *traj.states[i], *traj.actions[i]]
            writer.writerow([f"{v:.17g}" for v in row])


def csv_ingest(path):
    """Read a trajectory CSV back; exact inverse of the export.

    Every cell must be a finite number, and the time column must step
    uniformly: each step equals the first, ``dt``, to within a relative
    ``_DT_RTOL``, which allows for the rounding of exported ``i * dt``
    times.  A violation raises :class:`CsvParseError` naming its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        if not header or header[0] != "t":
            raise CsvParseError("missing column 't' (must be first)", line=1)
        names = header[1:]
        if not names:
            raise CsvParseError("no state channels in header", line=1)
        n_actions = 0
        for name in reversed(names):
            if name.startswith("u"):
                n_actions += 1
            else:
                break
        state_names = names[:len(names) - n_actions]
        action_names = names[len(names) - n_actions:]
        for name in state_names:
            if name.startswith("u"):
                raise CsvParseError(
                    f"state column {name!r} located among action columns", line=1)
        rows = []
        line_nos = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, found {len(row)}",
                    line=line_no)
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise CsvParseError(str(exc), line=line_no) from None
            for name, v in zip(header, values):
                if not math.isfinite(v):
                    raise CsvParseError(f"non-finite value {v} in column "
                                        f"{name!r}", line=line_no)
            rows.append(values)
            line_nos.append(line_no)
    if len(rows) < 2:
        raise CsvParseError("need at least 2 data rows to recover dt")
    data = np.asarray(rows)
    dt = data[1, 0] - data[0, 0]
    if dt <= 0:
        raise CsvParseError("time column must be strictly increasing",
                            line=line_nos[1])
    steps = np.diff(data[:, 0])
    off = np.flatnonzero(np.abs(steps - dt) > _DT_RTOL * dt)
    if off.size:
        k = off[0] + 1
        raise CsvParseError(f"time step {steps[k - 1]!r} differs from dt "
                            f"{dt!r}: the time column must be uniform",
                            line=line_nos[k])
    d = len(state_names)
    return Trajectory(data[:, 1:1 + d], data[:, 1 + d:], dt,
                      tuple(state_names), tuple(action_names))


# ---------------------------------------------------------------------------
# Manifests: enough structured metadata to re-create a dataset exactly.

def dataset_manifest(ds, stats):
    doc = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "n": ds.n,
        "lb": ds.lb,
        "lf": ds.lf,
        "input_names": list(ds.input_names),
        "target_names": list(ds.target_names),
        "target_convention": TARGET_CONVENTION,
        "meta": {k: v for k, v in ds.meta.items() if k != "dt"},
        "normalization": {"mean": stats.mean.tolist(),
                          "std": stats.std.tolist()},
    }
    if "dt" in ds.meta:
        doc["dt"] = ds.meta["dt"]
    return doc


def _refuse_constant(token):
    raise ValueError(f"{token} is not a number in strict JSON")


# The python types json.load gives each kind of value a schema names: a
# bool is none of them, any number fits a float, and no value is missing
_TYPES = {"string": (str,), "integer": (int,), "number": (int, float),
          "object": (dict,), "list": (list,), "null": (type(None),),
          "missing": ()}

# The kind that holds a value of each python type, for schemas derived from
# dataclass fields and defaults
JSON_KIND = {str: "string", int: "integer", float: "number", dict: "object",
             list: "list", tuple: "list", np.ndarray: "list"}


def fields_schema(cls, prefix=""):
    """The schema of a JSON object of dataclass ``cls``'s fields: each
    field's kind, or null too where the field's default is None.  A field
    that is a dataclass is an object, and its fields are dotted keys."""
    schema = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            schema[prefix + f.name] = "object"
            schema.update(fields_schema(f.type, f"{prefix}{f.name}."))
        else:
            schema[prefix + f.name] = JSON_KIND[f.type] + (
                " or null" if f.default is None else "")
    return schema


def from_fields(cls, doc, key):
    """The ``cls`` whose fields ``doc``, the object at ``key`` of a file that
    passed :func:`fields_schema` (``cls``), holds; "" is the whole file.  A
    dataclass field is built likewise.  A :class:`ConfigError` from an
    object's own checks names its key: ``config.train: lags must be >= 1``."""
    values = {f.name: from_fields(f.type, doc[f.name],
                                  f"{key}.{f.name}".lstrip("."))
              if is_dataclass(f.type) else doc[f.name] for f in fields(cls)}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}" if key else str(exc)) from None


def _is(value, kind):
    if kind.startswith("list of "):   # "list of integers": each an integer
        return isinstance(value, list) and all(_is(v, kind[8:-1])
                                               for v in value)
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


def check_json(doc, schema, where, closed=None):
    """Check a parsed JSON document against ``schema``.

    ``schema`` maps each key to the kinds its value may be, joined by
    " or " (``"string or null"``); the kind ``missing`` lets the key be
    left out.  A dotted key (``"config.lb"``) is a key of an object that
    ``schema`` lists before it (``"config": "object"``).  A document that is
    not an object, a missing key or a value of no listed kind raises
    :class:`ConfigError` naming ``where`` and the key.  When ``closed``
    names the document (``"config"``), a top-level key that ``schema`` does
    not list is refused too.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must hold a JSON object")
    unknown = sorted(set(doc) - set(schema)) if closed else []
    if unknown:
        raise ConfigError(
            f"{where}: unknown {closed} keys: {', '.join(unknown)}")
    for name, kinds in schema.items():
        *parents, key = name.split(".")
        value = doc
        for parent in parents:
            value = value[parent]
        kinds = kinds.split(" or ")
        if key not in value and "missing" not in kinds:
            raise ConfigError(f"{where}: {name!r} is missing")
        if key in value and not any(_is(value[key], k) for k in kinds):
            what = " or ".join(k if k == "null" else ("an " if k[0] in "aeiou"
                               else "a ") + k for k in kinds if k != "missing")
            raise ConfigError(f"{where}: {name!r} must be {what}, got "
                              f"{reprlib.repr(value[key])}")


def read_json(path, schema, closed=None, version=None):
    """Read a JSON artifact and check it against ``schema`` (see
    :func:`check_json`), naming the file in any error.  A file that does
    not parse, as a write cut short leaves it, or that holds ``NaN`` or
    ``Infinity``, which :func:`write_json` never writes, raises
    :class:`ConfigError` too, as does a ``format_version`` other than
    ``version``, when given, which is checked first."""
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=_refuse_constant)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if version is not None:
        check_json(doc, {"format_version": "integer"}, path)
        if doc["format_version"] != version:
            raise ConfigError(f"{path}: unsupported format_version "
                              f"{doc['format_version']}")
    check_json(doc, schema, path, closed)
    return doc


def write_json(doc, path, sort_keys=True):
    """The one JSON artifact format: indent 1, final newline, strict JSON.

    Keys are sorted unless ``sort_keys`` is false.  A non-finite float,
    which strict JSON cannot hold, raises :class:`DomainError` naming the
    file, and the file is left as it was.
    """
    with open_atomic(path) as fh:
        try:
            json.dump(doc, fh, indent=1, sort_keys=sort_keys, allow_nan=False)
        except ValueError as exc:
            raise DomainError(f"{path}: {exc}") from None
        fh.write("\n")


@contextlib.contextmanager
def open_atomic(path, newline=None):
    """Open ``path`` for writing text that replaces it all at once.

    The text goes to a temporary file in the same directory, named
    ``.<name>.<random>.tmp`` so that no artifact pattern matches it.  When
    the block ends, ``os.replace`` puts it in place of ``path``; when the
    block raises, it is removed and ``path`` is left as it was.  The file
    gets the permissions a plain ``open(path, "w")`` would give it.
    """
    umask = os.umask(0)
    os.umask(umask)
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp",
                               dir=directory)
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
