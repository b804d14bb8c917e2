"""Training losses: MSE and the Ljung-Box whitening penalty with exact
analytic gradients, plus the statistic and the lag correlations it is built
from, for diagnostics.

Member axes
-----------
Every function takes leading member axes, as the stacked layers do: ``mse``
and the composite losses take ``(..., batch, width)``, ``ljb_loss`` and
``ljb_statistic`` take ``(..., batch, n)`` and ``ljb_loss_2d`` takes
``(..., H, W)``.  Each returns one value per member and a gradient in the
input's shape; a plain 2-D input returns a Python ``float``.  A target
without the member axes is shared by every member.  Each member goes through
the same floating-point operations, in the same order, as a call on that
member alone, so stacking changes no bit of any value or gradient.

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
:func:`ljb_statistic`, :func:`composite_loss` and :func:`composite_value`;
it returns the lag correlations rho_k with the statistic, so one call gives
a diagnostic report both.
It takes every residual row of a batch at once, held time-major: one
column per row, ``(n, rows)``.  The composite losses write the residual of
every channel (and of every member of a stacked model) once, in that
layout, so one call covers them all, with a short loop over lags inside.
Each sum over time is a few adds of whole rows that replay the order in
which ``np.sum(..., axis=1)`` sums one contiguous row (numpy's pairwise
summation), so every value, rho and gradient has the bits a row-major
``np.sum`` per row and lag gives, without numpy's slowest reduction shape:
one short inner loop per row.  The value-only path, used by
:func:`composite_value` for validation, builds no gradient arrays and
returns the same bits as :func:`composite_loss`.  The 2-D kernel, used by
:func:`ljb_loss_2d`, is numpy too: one slice product per lag pair, over
every member at once.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

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


def _check_target(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    # a target without the member axes is shared by every member
    if target.ndim < 2 or pred.shape[pred.ndim - target.ndim:] != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    return pred, target


def _mse(diff, with_grad):
    """Per-member mean square of ``diff = pred - target``, and with
    ``with_grad`` its gradient w.r.t. ``pred``.

    The mean over the last two axes is one pairwise sum over each member's
    contiguous block, the same sum a flat ``np.mean`` of the member makes.
    """
    loss = np.mean(diff * diff, axis=(-2, -1))
    if not with_grad:
        return loss, None
    return loss, (2.0 / (diff.shape[-2] * diff.shape[-1])) * diff


def _per_member(loss):
    return float(loss) if loss.ndim == 0 else loss


def mse(pred, target):
    """Mean squared error of each ``(batch, width)`` member and its gradient
    w.r.t. ``pred``."""
    pred, target = _check_target(pred, target)
    loss, grad = _mse(pred - target, with_grad=True)
    return _per_member(loss), grad


# ---------------------------------------------------------------------------
# The 1-D Ljung-Box kernel, shared by the loss, the statistic and the
# composite loss over every channel of a batch.

# Columns per pass of the kernel.  Large evaluation sets are walked in
# blocks so that the per-lag products stay in cache: on a Xeon with 2 MB of
# L2 per core, of 1,024, 4,096 and 8,192 columns and one pass, 4,096 was the
# fastest over eval-sized inputs taken together.  Columns are independent,
# so the block size changes no bit.
_BLOCK = 4096


def _row_sums(p, out=None):
    """``np.sum(p.T, axis=1)`` of the time-major ``p``, ``(m, rows)``, bit for
    bit, from whole-row adds.

    This replays numpy's pairwise summation of each contiguous row: below 8
    terms a sequential sum from a +0.0 accumulator; up to 128 terms eight
    accumulators (the first eight terms, plus each further block of eight),
    reduced as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail in
    sequence; above 128 terms the two halves split at a multiple of 8.
    numpy adds the pairwise sum to a +0.0 identity, so no sum is -0.0.
    Where two NaNs meet, which one's sign and payload survive follows the
    operand order of numpy's compiled loop; that is not replayed.
    """
    m = p.shape[0]
    if m < 8:
        acc = np.add(p[0], 0.0, out=out)
        for row in p[1:]:
            acc += row
        return acc
    if m > 128:
        half = m // 2 - m // 2 % 8
        # each half's +0.0 can change only the sign of a zero sum, and the
        # last add of +0.0 clears that
        acc = _row_sums(p[:half]) + _row_sums(p[half:])
    else:
        full = m - m % 8
        r = p[:8]
        if full > 8:
            r = r + p[8:16]
            for i in range(16, full, 8):
                r += p[i:i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        acc = r[0] + r[1]
        for row in p[full:]:
            acc += row
    return np.add(acc, 0.0, out=out)


def _ljb_columns(r, lags, epsilon, batch):
    """One block of :func:`_ljb_kernel`: ``r`` is ``(n, cols)``."""
    n = r.shape[0]
    coef = float(n * (n + 2))
    s = _row_sums(r * r) + epsilon
    c = np.empty((lags, r.shape[1]))
    for k in range(1, lags + 1):
        _row_sums(r[k:] * r[:n - k], out=c[k - 1])
    rho = c / s
    n_minus_k = np.arange(n - 1.0, n - lags - 1.0, -1.0)[:, None]
    terms = coef * rho * rho / n_minus_k
    stat = terms[0].copy()
    for term in terms[1:]:
        stat += term
    if batch is None:
        return stat, rho, None
    # grad_t = sum_k w_k (r_{t-k} + r_{t+k}) - 4 stat r_t / s, where each
    # shift by k is a slice of whole rows of one product w_k r.  One buffer
    # holds each lag's product in turn: one (lags, n, cols) product of every
    # lag ran the loss ×1.9 slower at 5 stacked members (a temporary that
    # large is page-faulted back in on each call) and raised its peak 37%
    w = (2.0 * coef) * rho / (n_minus_k * s)
    grad = np.zeros_like(r)
    wr = np.empty_like(r)
    for k in range(1, lags + 1):
        np.multiply(w[k - 1], r, out=wr)
        grad[k:] += wr[:n - k]
        grad[:n - k] += wr[k:]
    grad -= (4.0 * stat / s) * r
    grad /= batch
    return stat, rho, grad


def _ljb_kernel(rt, lags, epsilon, batch=None):
    """Per-row Ljung-Box statistic of residual rows held time-major:
    ``rt`` is ``(n, rows)``, one column per residual row.

    Returns ``(stat, rho, grad)``: ``stat`` has one entry per row and ``rho``
    is the ``(lags, rows)`` array of rho_k, k = 1..lags.  With ``batch`` set,
    ``grad`` is the ``(n, rows)`` gradient of each group of ``batch`` rows'
    mean statistic; without it (the value-only path) no gradient array is
    built and ``grad`` is None.

    Each row goes through the same floating-point operations, in the same
    order, as ``np.sum(..., axis=1)`` over that row alone makes: every sum
    over time is :func:`_row_sums`, which replays numpy's pairwise order
    with adds of whole rows of ``rt``, and sums over lags run left to
    right.  So results do not depend on how many rows or channels are
    stacked, nor on the column blocks the kernel walks.
    """
    parts = [_ljb_columns(rt[:, j:j + _BLOCK], lags, epsilon, batch)
             for j in range(0, rt.shape[1], _BLOCK)]
    if len(parts) == 1:
        return parts[0]
    stat, rho, grad = zip(*parts)
    return (np.concatenate(stat), np.concatenate(rho, axis=1),
            None if batch is None else np.concatenate(grad, axis=1))


def _time_major(r, lags):
    """The residual rows ``r``, ``(..., batch, n)``, checked and copied
    time-major for the kernel, ``(n, rows)``, with their shape ``(..., batch)``."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim < 2:
        raise ShapeError(
            f"residuals must be (..., batch, n), got ndim={r.ndim}")
    if lags >= r.shape[-1]:
        raise DomainError(f"lags {lags} must be < window length {r.shape[-1]}")
    rt = np.ascontiguousarray(np.moveaxis(r, -1, 0))
    return rt.reshape(r.shape[-1], -1), r.shape[:-1]


def ljb_statistic(r, cfg):
    """Batch-averaged Ljung-Box statistic of residual rows, and the
    batch-averaged rho_k, k = 1..lags, it is built from (value only).

    A stacked ``(..., batch, n)`` input gives statistics of shape ``(...)``
    and rho of shape ``(..., lags)``."""
    rt, rows = _time_major(r, cfg.lags)
    stat, rho, _ = _ljb_kernel(rt, cfg.lags, cfg.epsilon)
    # row-major (..., lags), as a one-member call returns it
    rho = np.ascontiguousarray(
        np.moveaxis(rho.reshape(cfg.lags, *rows).mean(axis=-1), 0, -1))
    return _per_member(stat.reshape(rows).mean(axis=-1)), rho


def ljb_loss(r, cfg):
    """Ljung-Box statistic and its exact gradient w.r.t. every residual,
    one batch-mean statistic per ``(batch, n)`` member."""
    rt, rows = _time_major(r, cfg.lags)
    stat, _, grad = _ljb_kernel(rt, cfg.lags, cfg.epsilon, batch=rows[-1])
    return (_per_member(stat.reshape(rows).mean(axis=-1)),
            np.moveaxis(grad.reshape(rt.shape[:1] + rows), 0, -1))


def _check_pair(pred, target, cfg, n_channels):
    pred, target = _check_target(pred, target)
    if pred.shape[-1] % n_channels != 0:
        raise ShapeError(
            f"width {pred.shape[-1]} not divisible by n_channels {n_channels}")
    lf = pred.shape[-1] // n_channels
    if cfg.lam != 0.0 and lf < cfg.lags + 1:
        raise DomainError(f"lookforward {lf} too small for {cfg.lags} lags")
    return pred, target


def _whitening(diff, cfg, n_channels, with_grad):
    """Per-channel penalty terms lambda/d * mean statistic of the residual
    ``diff``, and their gradient.

    The residual is copied once, time-major, ``(lf, ..., channel, batch)``,
    so the kernel takes every member and channel in one call (column =
    (member, channel, i)).  The terms have shape ``(..., n_channels)``; the
    gradient comes back as a ``(..., batch, lf, n_channels)`` view matching
    the step-major layout.
    """
    *lead, b, width = diff.shape
    lf = width // n_channels
    m = len(lead)
    scale = cfg.lam / n_channels
    # (..., batch, lf * channel) step-major -> (lf, ..., channel, batch)
    resid = np.empty((lf, *lead, n_channels, b))
    resid[...] = diff.reshape(*lead, b, lf, n_channels).transpose(
        m + 1, *range(m), m + 2, m)
    stat, _, grad = _ljb_kernel(resid.reshape(lf, -1), cfg.lags, cfg.epsilon,
                                b if with_grad else None)
    terms = scale * stat.reshape(resid.shape[1:]).mean(axis=-1)
    if grad is not None:
        grad = (scale * grad).reshape(resid.shape).transpose(
            *range(1, m + 1), m + 2, 0, m + 1)
    return terms, grad


def _add_terms(loss, terms):
    # left to right from the MSE, channel by channel, so the value does not
    # depend on how the channels or the members are stacked
    by_channel = terms.transpose(-1, *range(terms.ndim - 1))
    return functools.reduce(operator.add, by_channel, loss)


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
    loss, grad = _mse(diff, with_grad=True)
    if cfg.lam != 0.0:
        terms, pgrad = _whitening(diff, cfg, n_channels, with_grad=True)
        grad.reshape(pgrad.shape)[...] += pgrad
        loss = _add_terms(loss, terms)
    return _per_member(loss), grad


def composite_value(pred, target, cfg, n_channels=1):
    """The value of :func:`composite_loss`, bit for bit, without gradients."""
    pred, target = _check_pair(pred, target, cfg, n_channels)
    diff = pred - target
    loss, _ = _mse(diff, with_grad=False)
    if cfg.lam != 0.0:
        terms, _ = _whitening(diff, cfg, n_channels, with_grad=False)
        loss = _add_terms(loss, terms)
    return _per_member(loss)


# ---------------------------------------------------------------------------
# 2-D (spatial) variant for residual images.

def _ljb2d_value_grad(img, lags, epsilon):
    """Loss and gradient of each ``(H, W)`` member of ``img``, ``(..., H, W)``.

    Each lag pair keeps one sum over the last two axes of a contiguous slice
    product, which numpy reduces as one pairwise sum per member, the same sum
    a flat ``np.sum`` of that member's product makes; summing rows and then
    columns would change bits.  The scalars are ``(..., 1, 1)`` arrays.
    """
    h, w = img.shape[-2:]
    n = h * w
    coef = float(n * (n + 2))
    s = np.sum(img * img, axis=(-2, -1), keepdims=True) + epsilon
    loss = 0.0
    grad = np.zeros_like(img)
    for p in range(lags + 1):
        for q in range(lags + 1):
            if p == 0 and q == 0:
                continue
            nv = (h - p) * (w - q)
            lo, hi = img[..., :h - p, :w - q], img[..., p:, q:]
            rho = np.sum(hi * lo, axis=(-2, -1), keepdims=True) / s
            loss += coef * rho * rho / nv
            wgt = 2.0 * coef * rho / (nv * s)
            grad[..., p:, q:] += wgt * lo
            grad[..., :h - p, :w - q] += wgt * hi
    grad -= (4.0 * loss / s) * img
    return loss[..., 0, 0], grad


def ljb_loss_2d(residual_image, cfg):
    """Spatial Ljung-Box penalty over lag pairs (p, q) in [0, L]^2 \\ (0, 0),
    one value per ``(H, W)`` member, and its gradient."""
    img = np.ascontiguousarray(residual_image, dtype=np.float64)
    if img.ndim < 2:
        raise ShapeError(
            f"residual image must be (..., H, W), got ndim={img.ndim}")
    if cfg.two_d_lags >= min(img.shape[-2:]):
        raise DomainError(
            f"two_d_lags {cfg.two_d_lags} must be < min of image shape "
            f"{img.shape[-2:]}")
    loss, grad = _ljb2d_value_grad(img, cfg.two_d_lags, cfg.epsilon)
    return _per_member(loss), grad
