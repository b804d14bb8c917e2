"""Training losses: MSE, residual autocorrelations, and the Ljung-Box
whitening penalty with exact analytic gradients.

Residual conventions
--------------------
A residual block is a ``(batch, n)`` float64 matrix: one lookforward window
per row for a single output channel.  Lagged correlations are normalized by
the zero-lag energy plus a small floor,

    rho_k = sum_{t=k}^{n-1} r_t r_{t-k} / (sum_t r_t^2 + eps),

with no mean subtraction; the whitening statistic per row is

    n (n + 2) * sum_{k=1}^{L} rho_k^2 / (n - k),

and batch values are arithmetic means over rows.  Normalizing by the energy
makes the penalty invariant to residual scale, so it never competes with MSE
over magnitude; ``eps`` removes the 0/0 at a perfect fit, where the value and
gradient are exactly zero.

The 2-D variant correlates an (H, W) residual image at integer lag pairs
(p, q), weighting each squared correlation by the overlap count
(H - p)(W - q) in place of the 1-D (n - k).

The 1-D statistic has one numpy kernel, used by :func:`ljb_loss`,
:func:`ljb_statistic`, :func:`composite_loss` and :func:`composite_value`.
It takes every residual row of a batch at once; the composite losses write
the residual of every channel (and of every member of a stacked model)
once, channel-major, so one call covers them all, with a short loop over
lags inside.  Each row goes through the same floating-point operations in
the same order as a one-channel evaluation of the formula, so stacking
channels or members changes no bit of the loss or of its gradient.  The
value-only path, used by :func:`composite_value` for validation, builds no
gradient arrays and returns the same bits as :func:`composite_loss`.  The
2-D kernel still has a numba-jitted loop build next to its numpy build (see
:mod:`whitenet.accel`).
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .accel import NUMBA_ENABLED, njit
from .errors import DomainError, ShapeError


@dataclass
class LossConfig:
    """Weights and window sizes for the composite whitening loss."""

    lam: float = 1.0
    lags: int = 5
    epsilon: float = 1e-8
    two_d_lags: int = 2

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError(f"lambda must be >= 0, got {self.lam}")
        if self.lags < 1:
            raise DomainError(f"lags must be >= 1, got {self.lags}")
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be > 0, got {self.epsilon}")
        if self.two_d_lags < 1:
            raise DomainError(f"two_d_lags must be >= 1, got {self.two_d_lags}")


def _check_residuals(r, min_n=2):
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.ndim != 2:
        raise ShapeError(f"residuals must be 2-D (batch, n), got ndim={r.ndim}")
    if r.shape[1] < min_n:
        raise DomainError(f"residual window length {r.shape[1]} < {min_n}")
    return r


def mse(pred, target):
    """Mean squared error over all entries and its gradient w.r.t. ``pred``."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad


def autocorr_1d_per_lag(r, lags, epsilon=1e-8):
    """Batch-averaged rho_k for k = 1..lags as an array (diagnostic helper)."""
    r = _check_residuals(r)
    n = r.shape[1]
    if not 1 <= lags < n:
        raise DomainError(f"lags {lags} out of range for window length {n}")
    s = np.sum(r * r, axis=1) + epsilon
    out = np.empty(lags)
    for k in range(1, lags + 1):
        c = np.sum(r[:, k:] * r[:, :n - k], axis=1)
        out[k - 1] = np.mean(c / s)
    return out


# ---------------------------------------------------------------------------
# The 1-D Ljung-Box kernel, shared by the loss, the statistic and the
# composite loss over every channel of a batch.

def _ljb_kernel(r, lags, epsilon, batch=None):
    """Per-row Ljung-Box statistic of the residual rows ``r``, ``(rows, n)``.

    Returns ``(stat, grad)``: ``stat`` has one entry per row.  With ``batch``
    set, ``grad`` is the ``(rows, n)`` gradient of each group of ``batch``
    rows' mean statistic; without it (the value-only path) no gradient array
    is built and ``grad`` is None.

    Each row goes through the same floating-point operations, in the same
    order, as when the formula is evaluated for one channel's rows alone, so
    results do not depend on how many rows or channels are stacked.  That is
    why each lag keeps its own ``np.sum`` over its ``n - k`` products along
    the fast axis (``r`` must be row-major), and why sums over lags run
    left to right.
    """
    rows, n = r.shape
    coef = float(n * (n + 2))
    s = np.sum(r * r, axis=1) + epsilon
    c = np.empty((lags, rows))
    for k in range(1, lags + 1):
        np.sum(r[:, k:] * r[:, :n - k], axis=1, out=c[k - 1])
    rho = c / s
    n_minus_k = np.arange(n - 1.0, n - lags - 1.0, -1.0)[:, None]
    stat = np.cumsum(coef * rho * rho / n_minus_k, axis=0)[-1]
    if batch is None:
        return stat, None
    # grad_t = sum_k w_k (r_{t-k} + r_{t+k}) - 4 stat r_t / s, accumulated
    # time-major, where each shift by k is a contiguous slice of whole rows
    w = (2.0 * coef) * rho / (n_minus_k * s)
    rt = np.ascontiguousarray(r.T)
    grad = np.zeros((n, rows))
    for k in range(1, lags + 1):
        grad[k:] += w[k - 1] * rt[:n - k]
        grad[:n - k] += w[k - 1] * rt[k:]
    grad -= (4.0 * stat / s) * rt
    grad /= batch
    return stat, grad.T


def _check_lags(r, lags):
    r = _check_residuals(r)
    if lags >= r.shape[1]:
        raise DomainError(f"lags {lags} must be < window length {r.shape[1]}")
    return r


def ljb_statistic(r, cfg):
    """Batch-averaged Ljung-Box statistic of residual rows (value only)."""
    r = _check_lags(r, cfg.lags)
    stat, _ = _ljb_kernel(r, cfg.lags, cfg.epsilon)
    return float(np.mean(stat))


def ljb_loss(r, cfg):
    """Ljung-Box statistic and its exact gradient w.r.t. every residual."""
    r = _check_lags(r, cfg.lags)
    stat, grad = _ljb_kernel(r, cfg.lags, cfg.epsilon, batch=r.shape[0])
    return float(np.mean(stat)), grad


def _check_pair(pred, target, cfg, n_channels):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    # a target without the member axes is shared by every member
    if target.ndim < 2 or pred.shape[pred.ndim - target.ndim:] != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.shape[-1] % n_channels != 0:
        raise ShapeError(
            f"width {pred.shape[-1]} not divisible by n_channels {n_channels}")
    lf = pred.shape[-1] // n_channels
    if cfg.lam != 0.0 and lf < cfg.lags + 1:
        raise DomainError(f"lookforward {lf} too small for {cfg.lags} lags")
    return pred, target


def _channel_major(a, n_channels):
    # (..., batch, lf * n_channels) step-major -> (..., channel, batch, lf)
    return a.reshape(a.shape[:-1] + (-1, n_channels)).swapaxes(-1, -3) \
        .swapaxes(-1, -2)


def _whitening(pred, target, cfg, n_channels, with_grad):
    """Per-channel penalty terms lambda/d * mean statistic, and their gradient.

    The residual is written once, channel-major (row = (member, channel, i)),
    so the kernel takes every member and channel in one call.  The terms
    have shape ``(..., n_channels)``; the gradient comes back as a
    ``(..., batch, lf, n_channels)`` view matching the step-major layout.
    """
    *lead, b, width = pred.shape
    lf = width // n_channels
    scale = cfg.lam / n_channels
    resid = np.empty((*lead, n_channels, b, lf))
    np.subtract(_channel_major(pred, n_channels),
                _channel_major(target, n_channels), out=resid)
    stat, grad = _ljb_kernel(resid.reshape(-1, lf), cfg.lags, cfg.epsilon,
                             b if with_grad else None)
    terms = scale * stat.reshape(resid.shape[:-1]).mean(axis=-1)
    if grad is not None:
        # grad.T is the kernel's time-major array: (lf, ..., channel, batch)
        grad = (scale * grad.T).reshape((lf,) + resid.shape[:-1])
        m = len(lead)
        grad = grad.transpose(*range(1, m + 1), m + 2, 0, m + 1)
    return terms, grad


def _add_terms(loss, terms):
    # left to right from the MSE, channel by channel, so the value does not
    # depend on how the channels or the members are stacked
    by_channel = terms.transpose(-1, *range(terms.ndim - 1))
    return functools.reduce(operator.add, by_channel, loss)


def _per_member(loss):
    return float(loss) if loss.ndim == 0 else loss


def composite_loss(pred, target, cfg, n_channels=1):
    """MSE plus lambda times the channel-averaged Ljung-Box penalty.

    ``pred`` and ``target`` are ``(batch, lf * n_channels)`` with the step-major
    layout column = step * n_channels + channel.  With ``lam == 0`` the result
    is bit-identical to :func:`mse`.  A stacked ``(members, batch, width)``
    ``pred`` gives one loss per member, each bit for bit the member's own;
    a 2-D ``target`` is then shared by every member.
    """
    pred, target = _check_pair(pred, target, cfg, n_channels)
    diff = pred - target
    loss = np.mean(diff * diff, axis=(-2, -1))   # the same values as mse
    grad = (2.0 / (diff.shape[-2] * diff.shape[-1])) * diff
    if cfg.lam != 0.0:
        terms, pgrad = _whitening(pred, target, cfg, n_channels,
                                  with_grad=True)
        grad.reshape(pgrad.shape)[...] += pgrad
        loss = _add_terms(loss, terms)
    return _per_member(loss), grad


def composite_value(pred, target, cfg, n_channels=1):
    """The value of :func:`composite_loss`, bit for bit, without gradients."""
    pred, target = _check_pair(pred, target, cfg, n_channels)
    diff = pred - target
    loss = np.mean(diff * diff, axis=(-2, -1))
    if cfg.lam != 0.0:
        terms, _ = _whitening(pred, target, cfg, n_channels,
                              with_grad=False)
        loss = _add_terms(loss, terms)
    return _per_member(loss)


# ---------------------------------------------------------------------------
# 2-D (spatial) variant for residual images.

def autocorr_2d(residual_image, p, q, epsilon=1e-8):
    """Energy-normalized spatial autocorrelation at lag pair (p, q)."""
    img = as_image(residual_image)
    h, w = img.shape
    if not (0 <= p < h and 0 <= q < w):
        raise DomainError(f"lag ({p}, {q}) out of range for image {img.shape}")
    s = float(np.sum(img * img)) + epsilon
    c = float(np.sum(img[p:, q:] * img[:h - p, :w - q]))
    return c / s


def as_image(x):
    img = np.ascontiguousarray(x, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError(f"residual image must be 2-D, got ndim={img.ndim}")
    return img


def _ljb2d_value_grad_numpy(img, lags, epsilon):
    h, w = img.shape
    n = h * w
    coef = float(n * (n + 2))
    s = float(np.sum(img * img)) + epsilon
    loss = 0.0
    grad = np.zeros_like(img)
    for p in range(lags + 1):
        for q in range(lags + 1):
            if p == 0 and q == 0:
                continue
            nv = (h - p) * (w - q)
            c = float(np.sum(img[p:, q:] * img[:h - p, :w - q]))
            rho = c / s
            loss += coef * rho * rho / nv
            wgt = 2.0 * coef * rho / (nv * s)
            grad[p:, q:] += wgt * img[:h - p, :w - q]
            grad[:h - p, :w - q] += wgt * img[p:, q:]
    grad -= (4.0 * loss / s) * img
    return loss, grad


@njit(cache=True)
def _ljb2d_value_grad_loop(img, lags, epsilon):  # pragma: no cover - jitted
    h, w = img.shape
    n = h * w
    coef = float(n * (n + 2))
    s = epsilon
    for i in range(h):
        for j in range(w):
            s += img[i, j] * img[i, j]
    loss = 0.0
    grad = np.zeros((h, w))
    for p in range(lags + 1):
        for q in range(lags + 1):
            if p == 0 and q == 0:
                continue
            nv = (h - p) * (w - q)
            c = 0.0
            for i in range(p, h):
                for j in range(q, w):
                    c += img[i, j] * img[i - p, j - q]
            rho = c / s
            loss += coef * rho * rho / nv
            wgt = 2.0 * coef * rho / (nv * s)
            for i in range(p, h):
                for j in range(q, w):
                    grad[i, j] += wgt * img[i - p, j - q]
                    grad[i - p, j - q] += wgt * img[i, j]
    for i in range(h):
        for j in range(w):
            grad[i, j] -= 4.0 * loss * img[i, j] / s
    return loss, grad


_ljb2d_value_grad = _ljb2d_value_grad_loop if NUMBA_ENABLED else _ljb2d_value_grad_numpy


def ljb_loss_2d(residual_image, cfg):
    """Spatial Ljung-Box penalty over lag pairs (p, q) in [0, L]^2 \\ (0, 0)."""
    img = as_image(residual_image)
    if cfg.two_d_lags >= min(img.shape):
        raise DomainError(
            f"two_d_lags {cfg.two_d_lags} must be < min of image shape {img.shape}")
    loss, grad = _ljb2d_value_grad(img, cfg.two_d_lags, cfg.epsilon)
    return loss, grad
