"""Residual diagnostics: per-channel error and whiteness summaries.

For every recorded state channel the report carries the lookforward-window
RMSE, the standard deviation of the residual entries, the batch-averaged
autocorrelation at lags 1..L with its confidence bands, the absolute and
squared autocorrelation sums, and the Ljung-Box statistic with a chi-square
upper-tail p-value.  Two bands are reported: ``band_window`` (1.96/sqrt(lf))
is the usual single-window band and belongs on per-window ACF plots;
``band_mean`` (1.96/sqrt(lf * N)) is the matching band for the batch-averaged
curve, which tightens with the number of windows averaged.

The chi-square tail is evaluated here directly (series + continued fraction)
so the package needs no stats dependency at runtime.
"""

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .datasets import fields_schema, open_atomic, read_json, write_json
from .errors import ConfigError, DomainError, ShapeError
from .losses import LossConfig, ljb_statistic, mse

REPORT_FORMAT_VERSION = 1


def chi2_upper_tail(x, dof):
    """P(chi2_dof > x), to better than 1e-8 absolute.

    Regularized incomplete gamma Q(dof/2, x/2): power series for the lower
    tail in the small-x region, Lentz continued fraction for the upper tail
    elsewhere (the classic split at x/2 < dof/2 + 1).
    """
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    if x < 0:
        raise DomainError(f"statistic must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    a = 0.5 * dof
    z = 0.5 * x
    log_prefix = a * math.log(z) - z - math.lgamma(a)
    if z < a + 1.0:
        # P(a, z) series: sum z^n / (a (a+1) ... (a+n))
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(500):
            denom += 1.0
            term *= z / denom
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p_lower = total * math.exp(log_prefix)
        return min(1.0, max(0.0, 1.0 - p_lower))
    # Q(a, z) continued fraction, modified Lentz
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return min(1.0, max(0.0, math.exp(log_prefix) * h))


# A report's per-channel arrays, which aggregate takes mean and std of
_METRICS = ("rmse", "std", "acf", "sum_ac", "sum_ac_sq", "ljb", "p_value")


@dataclass
class EvalReport:
    """Per-channel residual diagnostics for one model on one dataset."""

    config_id: str
    run_id: str
    dataset_id: str
    channels: tuple
    lags: int
    n_samples: int
    lf: int
    rmse: np.ndarray          # (d,)
    std: np.ndarray           # (d,)
    acf: np.ndarray           # (d, lags), batch-averaged rho_k, k = 1..lags
    sum_ac: np.ndarray        # (d,) sum of |rho_k|
    sum_ac_sq: np.ndarray     # (d,) sum of rho_k^2
    ljb: np.ndarray           # (d,) batch-averaged Ljung-Box statistic
    p_value: np.ndarray       # (d,) chi-square upper tail of ljb
    band_window: float
    band_mean: float
    mse_value: float
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        doc = {"format_version": REPORT_FORMAT_VERSION, **vars(self),
               "channels": list(self.channels)}
        for name in _METRICS:
            doc[name] = getattr(self, name).tolist()
        return doc


def predict(model, ds):
    """Eval-mode predictions for every window of ``ds``.  The inputs are
    gathered once; :meth:`Model.predict` keeps no backward cache and runs
    in cache-sized row blocks, so the peak memory is the gathered inputs
    and the predictions plus one block's activations."""
    return model.predict(ds.inputs)


def evaluate(model, ds, lags=5, run_id="", dataset_id="", config_id=""):
    """Residual diagnostics of ``model`` on ``ds`` (deterministic, eval mode)."""
    width = ds.lf * ds.d_out
    if model.head.spec.out_dim != width:
        raise ShapeError(
            f"model head width {model.head.spec.out_dim} != target width "
            f"{width}")
    if ds.lf <= lags:
        raise DomainError(f"lookforward {ds.lf} must exceed lags {lags}")
    pred = predict(model, ds)
    targets = ds.targets
    d = ds.d_out
    # (N, lf * d) step-major -> (d, N, lf): one block of windows per channel
    resid = np.ascontiguousarray(
        (targets - pred).reshape(ds.n, ds.lf, d).transpose(2, 0, 1))
    ljb, acf = ljb_statistic(resid, LossConfig(lags=lags))
    rmse = np.array([math.sqrt(float(np.mean(rm * rm))) for rm in resid])
    std = np.array([float(np.std(rm)) for rm in resid])
    p_value = np.array([chi2_upper_tail(x, lags) for x in ljb])
    mse_value, _ = mse(pred, targets)
    return EvalReport(
        config_id=config_id, run_id=run_id, dataset_id=dataset_id,
        channels=ds.target_names, lags=lags, n_samples=ds.n, lf=ds.lf,
        rmse=rmse, std=std, acf=acf,
        sum_ac=np.sum(np.abs(acf), axis=1),
        sum_ac_sq=np.sum(acf * acf, axis=1),
        ljb=ljb, p_value=p_value,
        band_window=1.96 / math.sqrt(ds.lf),
        band_mean=1.96 / math.sqrt(ds.lf * max(ds.n, 1)),
        mse_value=mse_value)


@dataclass
class AggregateReport:
    """Across-seed mean and std of every EvalReport metric."""

    config_id: str
    dataset_id: str
    channels: tuple
    lags: int
    n_seeds: int
    mean: dict
    std: dict
    run_ids: list

    def to_dict(self):
        return {"format_version": REPORT_FORMAT_VERSION, **vars(self),
                "channels": list(self.channels),
                "mean": {k: v.tolist() for k, v in self.mean.items()},
                "std": {k: v.tolist() for k, v in self.std.items()}}


def aggregate(reports):
    """Mean/std per metric across seeds; reports must share a configuration."""
    if not reports:
        raise DomainError("nothing to aggregate")
    first = reports[0]
    for rep in reports[1:]:
        if (rep.config_id, rep.dataset_id, rep.channels, rep.lags) != \
                (first.config_id, first.dataset_id, first.channels, first.lags):
            raise DomainError("cannot aggregate reports of mixed configurations")
    mean = {}
    std = {}
    for name in _METRICS:
        stack = np.stack([getattr(rep, name) for rep in reports])
        mean[name] = stack.mean(axis=0)
        std[name] = stack.std(axis=0)
    return AggregateReport(
        config_id=first.config_id, dataset_id=first.dataset_id,
        channels=first.channels, lags=first.lags, n_seeds=len(reports),
        mean=mean, std=std, run_ids=[rep.run_id for rep in reports])


# ---------------------------------------------------------------------------
# Emission: markdown summary tables, ACF plot-data CSV, JSON round trip.

def emit(report, fmt, path):
    if fmt == "markdown":
        _emit_markdown(report, path)
    elif fmt == "csv":
        _emit_acf_csv(report, path)
    elif fmt == "json":
        write_json(report.to_dict(), path)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")


def _fmt(x):
    return f"{x:.4g}"


def _emit_markdown(report, path):
    lines = [f"# Residual diagnostics: {report.config_id or 'run'}", ""]
    if isinstance(report, AggregateReport):
        lines.append(f"Aggregated over {report.n_seeds} seeds "
                     f"(mean +/- std). Dataset: {report.dataset_id}.")
        lines.append("")
        lines.append("| Channel | RMSE | Std | SumAutoCorr | LJB | p-value |")
        lines.append("|---|---|---|---|---|---|")
        for i, ch in enumerate(report.channels):
            cells = [f"{_fmt(report.mean[k][i])} +/- {_fmt(report.std[k][i])}"
                     for k in ("rmse", "std", "sum_ac", "ljb", "p_value")]
            lines.append(f"| {ch} | " + " | ".join(cells) + " |")
    else:
        lines.append(f"Dataset: {report.dataset_id} ({report.n_samples} samples, "
                     f"lookforward {report.lf}). Run: {report.run_id}.")
        lines.append("")
        lines.append("| Channel | RMSE | Std | SumAutoCorr | SumAutoCorrSq "
                     "| LJB | p-value |")
        lines.append("|---|---|---|---|---|---|---|")
        for i, ch in enumerate(report.channels):
            lines.append(
                f"| {ch} | {_fmt(report.rmse[i])} | {_fmt(report.std[i])} | "
                f"{_fmt(report.sum_ac[i])} | {_fmt(report.sum_ac_sq[i])} | "
                f"{_fmt(report.ljb[i])} | {_fmt(report.p_value[i])} |")
        lines.append("")
        lines.append(f"ACF bands: per-window +/-{_fmt(report.band_window)}, "
                     f"batch-averaged +/-{_fmt(report.band_mean)}.")
    with open_atomic(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_acf_csv(report, path):
    """Per-lag plot data, zero lag suppressed: channel, lag, value, band."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "lag", "value", "band"])
        for i, ch in enumerate(report.channels):
            for k in range(report.lags):
                writer.writerow([ch, k + 1, f"{report.acf[i, k]:.17g}",
                                 f"{report.band_mean:.17g}"])


def load_report(path):
    """The report that ``emit(report, "json", path)`` wrote.  A bad key or
    format_version raises :class:`ConfigError` naming the file."""
    doc = read_json(path, fields_schema(EvalReport),
                    version=REPORT_FORMAT_VERSION)
    values = {f.name: doc[f.name] for f in fields(EvalReport)}
    values["channels"] = tuple(values["channels"])
    values.update((name, np.asarray(values[name])) for name in _METRICS)
    return EvalReport(**values)


def emit_comparison(aggregates, path):
    """One markdown table over many configurations, a row per config."""
    if not aggregates:
        raise DomainError("nothing to compare")
    lines = ["# Configuration comparison", ""]
    channels = aggregates[0].channels
    header = "| Config | Seeds | " + " | ".join(
        f"{ch} RMSE | {ch} SumAC" for ch in channels) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (2 + 2 * len(channels)))
    for agg in aggregates:
        cells = [agg.config_id, str(agg.n_seeds)]
        for i in range(len(channels)):
            cells.append(f"{_fmt(agg.mean['rmse'][i])} "
                         f"+/- {_fmt(agg.std['rmse'][i])}")
            cells.append(f"{_fmt(agg.mean['sum_ac'][i])} "
                         f"+/- {_fmt(agg.std['sum_ac'][i])}")
        lines.append("| " + " | ".join(cells) + " |")
    with open_atomic(path) as fh:
        fh.write("\n".join(lines) + "\n")
