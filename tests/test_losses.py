import numpy as np
import pytest

from conftest import fd_grad, rel_err
from whitenet.errors import DomainError, ShapeError
from whitenet.losses import (
    LossConfig,
    _ljb2d_value_grad_loop,
    _ljb2d_value_grad_numpy,
    autocorr_1d_per_lag,
    autocorr_2d,
    composite_loss,
    composite_value,
    ljb_loss,
    ljb_loss_2d,
    ljb_statistic,
    mse,
)
from whitenet.numerics import RngState

TINY = LossConfig(lags=5, epsilon=1e-300)


def _ljb_reference(r, lags, epsilon):
    """Reference: the module docstring's formula, one row and one lag at a time.

    Returns the batch-mean statistic and its gradient w.r.t. ``r``.
    """
    b, n = r.shape
    coef = float(n * (n + 2))
    stat_sum = 0.0
    grad = np.zeros((b, n))
    for i in range(b):
        s = epsilon
        for t in range(n):
            s += r[i, t] * r[i, t]
        stat = 0.0
        for k in range(1, lags + 1):
            c = 0.0
            for t in range(k, n):
                c += r[i, t] * r[i, t - k]
            rho = c / s
            stat += coef * rho * rho / (n - k)
            w = 2.0 * coef * rho / ((n - k) * s)
            for t in range(k, n):
                grad[i, t] += w * r[i, t - k]
                grad[i, t - k] += w * r[i, t]
        for t in range(n):
            grad[i, t] -= 4.0 * stat * r[i, t] / s
        stat_sum += stat
    return stat_sum / b, grad / b


def test_loss_config_validation():
    with pytest.raises(DomainError):
        LossConfig(lam=-0.1)
    with pytest.raises(DomainError):
        LossConfig(lags=0)
    with pytest.raises(DomainError):
        LossConfig(epsilon=0.0)
    with pytest.raises(DomainError):
        LossConfig(two_d_lags=0)


def test_mse_hand_value():
    loss, grad = mse([[1.0, 2.0]], [[0.0, 0.0]])
    assert loss == 2.5
    assert np.array_equal(grad, [[1.0, 2.0]])


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_autocorr_alternating_row():
    r = np.array([[1.0, -1.0, 1.0, -1.0]])
    per_lag = autocorr_1d_per_lag(r, 2, epsilon=1e-300)
    assert np.max(np.abs(per_lag - [-0.75, 0.5])) < 1e-15


def test_autocorr_constant_row():
    n = 10
    r = np.full((1, n), 3.0)
    per_lag = autocorr_1d_per_lag(r, 5, epsilon=1e-300)
    expect = np.array([(n - k) / n for k in range(1, 6)])
    assert np.max(np.abs(per_lag - expect)) < 1e-12


def test_autocorr_lag_out_of_range():
    r = np.ones((1, 4))
    with pytest.raises(DomainError):
        autocorr_1d_per_lag(r, 4)
    with pytest.raises(DomainError):
        autocorr_1d_per_lag(r, 0)


def test_ljb_statistic_alternating_is_42():
    r = np.array([[1.0, -1.0] * 5])
    stat = ljb_statistic(r, TINY)
    assert abs(stat - 42.0) < 1e-9


def test_ljb_statistic_batch_average():
    row = np.array([1.0, -1.0] * 5)
    stacked = np.vstack([row, row, row])
    assert abs(ljb_statistic(stacked, TINY) - 42.0) < 1e-9


def test_ljb_statistic_scale_invariant():
    r = RngState(0).normal(size=(8, 20))
    a = ljb_statistic(r, TINY)
    b = ljb_statistic(100.0 * r, TINY)
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_ljb_statistic_lags_guard():
    with pytest.raises(DomainError):
        ljb_statistic(np.ones((1, 4)), LossConfig(lags=5))


def test_ljb_white_noise_calibration():
    # statistic is asymptotically chi-square(L): mean should sit near L = 5
    r = RngState(99).normal(size=(500, 500))
    stat = ljb_statistic(r, LossConfig(lags=5))
    assert 4.4 < stat < 5.6


def test_ljb_loss_gradient_matches_fd():
    cfg = LossConfig(lags=5)
    r = RngState(2).normal(size=(4, 12))
    _, grad = ljb_loss(r, cfg)
    num = fd_grad(lambda x: ljb_loss(x, cfg)[0], r)
    assert rel_err(grad, num) < 1e-6


def test_ljb_loss_zero_residuals():
    loss, grad = ljb_loss(np.zeros((3, 10)), LossConfig(lags=5))
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((3, 10)))


def test_ljb_dual_builds_agree():
    # the all-channel kernel inside composite_loss against the per-row loop,
    # channel by channel; n = 6 is the shortest window 5 lags allow
    cfg = LossConfig(lam=1.0, lags=5, epsilon=1e-8)
    for d, b, n in [(1, 6, 15), (2, 6, 15), (3, 6, 15), (3, 1, 15), (2, 4, 6)]:
        resid = RngState(5).normal(size=(b, n * d))
        target = np.zeros_like(resid)
        m_loss, m_grad = mse(resid, target)
        c_loss, c_grad = composite_loss(resid, target, cfg, n_channels=d)
        ref_value = 0.0
        ref_grad = np.zeros_like(resid)
        for m in range(d):
            lv, lg = _ljb_reference(resid[:, m::d], 5, 1e-8)
            ref_value += lv / d
            ref_grad[:, m::d] = lg / d
        nv = c_loss - m_loss
        assert abs(ref_value - nv) < 1e-10 * max(1.0, abs(nv))
        assert np.allclose(ref_grad, c_grad - m_grad, rtol=1e-10, atol=1e-12)
        if d == 1:
            nv, ng = ljb_loss(resid, cfg)
            assert abs(ref_value - nv) < 1e-10 * max(1.0, abs(nv))
            assert np.allclose(ref_grad, ng, rtol=1e-10, atol=1e-12)
            assert ljb_statistic(resid, cfg) == nv


@pytest.mark.parametrize("d", [1, 2, 3])
def test_composite_is_mse_plus_channel_mean_of_ljb_loss(d):
    cfg = LossConfig(lam=0.3, lags=4)
    rng = RngState(11)
    pred = rng.normal(size=(9, 8 * d))
    target = rng.normal(size=(9, 8 * d))
    m_loss, m_grad = mse(pred, target)
    c_loss, c_grad = composite_loss(pred, target, cfg, n_channels=d)
    value = 0.0
    grad = np.zeros_like(pred)
    for m in range(d):
        lv, lg = ljb_loss(pred[:, m::d] - target[:, m::d], cfg)
        value += lv
        grad[:, m::d] = lg
    assert abs((c_loss - m_loss) - cfg.lam / d * value) < 1e-12
    assert np.max(np.abs((c_grad - m_grad) - cfg.lam / d * grad)) < 1e-12
    # stacking the channels in one kernel call changes no bit: the value is
    # the MSE plus each channel's term, added in channel order
    exact = m_loss
    for m in range(d):
        exact += cfg.lam / d * ljb_loss(pred[:, m::d] - target[:, m::d], cfg)[0]
    assert c_loss == exact
    assert np.array_equal(c_grad, m_grad + cfg.lam / d * grad)


@pytest.mark.parametrize("lam, d", [(0.0, 3), (0.7, 1), (0.7, 3), (2.0, 2)])
def test_composite_value_is_composite_loss_value_exactly(lam, d):
    cfg = LossConfig(lam=lam, lags=5)
    rng = RngState(12)
    pred = rng.normal(size=(37, 10 * d))
    target = rng.normal(size=(37, 10 * d))
    assert composite_value(pred, target, cfg, n_channels=d) == \
        composite_loss(pred, target, cfg, n_channels=d)[0]


@pytest.mark.parametrize("lam, d", [(0.0, 3), (0.7, 1), (0.7, 3)])
def test_stacked_composite_matches_members_exactly(lam, d):
    cfg = LossConfig(lam=lam, lags=5)
    rng = RngState(13)
    pred = rng.normal(size=(3, 37, 10 * d))
    target = rng.normal(size=(3, 37, 10 * d))
    loss, grad = composite_loss(pred, target, cfg, n_channels=d)
    value = composite_value(pred, target, cfg, n_channels=d)
    # a target without the member axis is shared by every member
    shared = composite_value(pred, target[0], cfg, n_channels=d)
    assert loss.shape == value.shape == shared.shape == (3,)
    for s in range(3):
        m_loss, m_grad = composite_loss(pred[s], target[s], cfg, n_channels=d)
        assert isinstance(m_loss, float)
        assert loss[s] == m_loss and value[s] == m_loss
        assert np.array_equal(grad[s].view(np.uint64), m_grad.view(np.uint64))
        assert shared[s] == composite_value(pred[s], target[0], cfg,
                                            n_channels=d)


def test_composite_lam_zero_is_mse_bitwise():
    rng = RngState(3)
    pred = rng.normal(size=(16, 30))
    target = rng.normal(size=(16, 30))
    m_loss, m_grad = mse(pred, target)
    c_loss, c_grad = composite_loss(pred, target, LossConfig(lam=0.0), n_channels=3)
    assert c_loss == m_loss
    assert np.array_equal(c_grad, m_grad)


def test_composite_gradient_matches_fd():
    cfg = LossConfig(lam=0.7, lags=3)
    rng = RngState(4)
    pred = rng.normal(size=(5, 24))
    target = rng.normal(size=(5, 24))
    _, grad = composite_loss(pred, target, cfg, n_channels=3)
    num = fd_grad(lambda x: composite_loss(x, target, cfg, n_channels=3)[0], pred)
    assert rel_err(grad, num) < 1e-6


def test_composite_perfect_prediction_is_zero():
    target = RngState(6).normal(size=(4, 20))
    loss, grad = composite_loss(target.copy(), target, LossConfig(), n_channels=2)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(target))


def test_composite_width_guards():
    cfg = LossConfig(lags=5)
    with pytest.raises(ShapeError):
        composite_loss(np.zeros((2, 10)), np.zeros((2, 10)), cfg, n_channels=3)
    with pytest.raises(DomainError):
        # lookforward 5 cannot support 5 lags
        composite_loss(np.zeros((2, 10)), np.zeros((2, 10)), cfg, n_channels=2)


def test_composite_penalty_increases_loss_for_correlated_residuals():
    target = np.zeros((2, 20))
    pred = np.tile(np.linspace(-1.0, 1.0, 20), (2, 1))  # smooth = autocorrelated
    m_loss, _ = mse(pred, target)
    c_loss, _ = composite_loss(pred, target, LossConfig(lam=1.0, lags=5))
    assert c_loss > m_loss


def test_autocorr_2d_checkerboard():
    idx = np.add.outer(np.arange(8), np.arange(8))
    cb = np.where(idx % 2 == 0, 1.0, -1.0)
    # adjacent rows anti-correlate: c = -7*8, s = 64
    assert abs(autocorr_2d(cb, 1, 0, epsilon=1e-300) - (-56.0 / 64.0)) < 1e-12
    assert abs(autocorr_2d(cb, 0, 0, epsilon=1e-300) - 1.0) < 1e-12
    assert abs(autocorr_2d(cb, 1, 1, epsilon=1e-300) - (49.0 / 64.0)) < 1e-12


def test_autocorr_2d_guards():
    with pytest.raises(ShapeError):
        autocorr_2d(np.zeros(4), 0, 0)
    with pytest.raises(DomainError):
        autocorr_2d(np.zeros((3, 3)), 3, 0)


def test_ljb_2d_gradient_matches_fd():
    cfg = LossConfig(two_d_lags=2)
    img = RngState(8).normal(size=(6, 6))
    _, grad = ljb_loss_2d(img, cfg)
    num = fd_grad(lambda x: ljb_loss_2d(x, cfg)[0], img)
    assert rel_err(grad, num) < 1e-5


def test_ljb_2d_zero_image():
    loss, grad = ljb_loss_2d(np.zeros((5, 5)), LossConfig(two_d_lags=2))
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((5, 5)))


def test_ljb_2d_dual_builds_agree():
    img = RngState(9).normal(size=(7, 7))
    lv, lg = _ljb2d_value_grad_loop(img, 2, 1e-8)
    nv, ng = _ljb2d_value_grad_numpy(img, 2, 1e-8)
    assert abs(lv - nv) < 1e-10 * max(1.0, abs(nv))
    assert np.allclose(lg, ng, rtol=1e-10, atol=1e-12)


def test_ljb_2d_lag_guard():
    with pytest.raises(DomainError):
        ljb_loss_2d(np.zeros((3, 8)), LossConfig(two_d_lags=3))
