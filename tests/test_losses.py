import numpy as np
import pytest

from conftest import fd_grad, rel_err
from whitenet.errors import DomainError, ShapeError
from whitenet.losses import (
    LossConfig,
    _row_sums,
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


def _acf_reference(r, lags, epsilon=1e-8):
    """Reference: batch-averaged rho_k for k = 1..lags, one lag at a time."""
    n = r.shape[1]
    s = np.sum(r * r, axis=1) + epsilon
    out = np.empty(lags)
    for k in range(1, lags + 1):
        c = np.sum(r[:, k:] * r[:, :n - k], axis=1)
        out[k - 1] = np.mean(c / s)
    return out


def _ljb2d_reference(img, lags, epsilon):
    """Reference: the 2-D statistic and its gradient, one pixel at a time."""
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


def _rowmajor_kernel(r, lags, epsilon, batch=None):
    """Reference: the kernel as it was before it went time-major, one
    ``np.sum(..., axis=1)`` per lag over the row-major residual ``r``,
    ``(rows, n)``; returns ``(stat, rho, grad)`` with ``grad`` ``(rows, n)``.
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
        return stat, rho, None
    w = (2.0 * coef) * rho / (n_minus_k * s)
    rt = np.ascontiguousarray(r.T)
    grad = np.zeros((n, rows))
    for k in range(1, lags + 1):
        grad[k:] += w[k - 1] * rt[:n - k]
        grad[:n - k] += w[k - 1] * rt[k:]
    grad -= (4.0 * stat / s) * rt
    grad /= batch
    return stat, rho, grad.T


def _rowmajor_statistic(r, cfg):
    *lead, b, n = r.shape
    stat, rho, _ = _rowmajor_kernel(np.ascontiguousarray(r).reshape(-1, n),
                                    cfg.lags, cfg.epsilon)
    rho = np.moveaxis(rho.reshape(cfg.lags, *lead, b).mean(axis=-1), 0, -1)
    stat = stat.reshape(*lead, b).mean(axis=-1)
    return (float(stat) if not lead else stat), rho


def _rowmajor_loss(r, cfg):
    *lead, b, n = r.shape
    stat, _, grad = _rowmajor_kernel(np.ascontiguousarray(r).reshape(-1, n),
                                     cfg.lags, cfg.epsilon, batch=b)
    stat = stat.reshape(*lead, b).mean(axis=-1)
    return (float(stat) if not lead else stat), grad.reshape(r.shape)


def _rowmajor_composite(pred, target, cfg, d, with_grad):
    """Reference composite loss: the residual channel-major, one row per
    (member, channel, window), through the row-major kernel."""
    loss, grad = mse(pred, target)
    if cfg.lam == 0.0:
        return loss, grad
    diff = pred - target
    *lead, b, width = diff.shape
    lf = width // d
    resid = np.ascontiguousarray(np.moveaxis(
        diff.reshape(*lead, b, lf, d), -1, -3))          # (..., d, b, lf)
    stat, _, g = _rowmajor_kernel(resid.reshape(-1, lf), cfg.lags,
                                  cfg.epsilon, b if with_grad else None)
    scale = cfg.lam / d
    terms = scale * stat.reshape(resid.shape[:-1]).mean(axis=-1)
    for ch in range(d):
        loss = loss + terms[..., ch]
    if with_grad:
        g = np.moveaxis((scale * g).reshape(resid.shape), -3, -1)
        grad = grad + g.reshape(grad.shape)
    return (float(loss) if not lead else loss), grad


def _grid_cases(n_cases, seed):
    """Random shapes over the kernel's range: 1-4 channels, 1-11 lags,
    windows up to 59 steps (and a few of 129-299, past numpy's 128-term
    block), batches of 1-1000, no member axis or stacks of 1, 2 and 5,
    lambda 0, 0.02 and 1, with zeroed entries and exact fits."""
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        d = int(rng.integers(1, 5))
        lags = int(rng.integers(1, 12))
        if case < 4:
            lf, b = int(rng.integers(129, 300)), int(rng.integers(1, 9))
        else:
            lf = int(rng.integers(lags + 1, 60))
            b = int(rng.choice([1, 2, 5, 17, 128, 1000]))
        lead = [(), (1,), (2,), (5,)][int(rng.integers(4))]
        if b * lf * d * max(lead, default=1) > 400_000:
            b = 17
        cfg = LossConfig(lam=float(rng.choice([0.0, 0.02, 1.0])), lags=lags,
                         epsilon=float(rng.choice([1e-8, 1e-300])))
        pred = rng.normal(size=lead + (b, lf * d)) * 10.0 ** rng.uniform(-3, 3)
        target = rng.normal(size=pred.shape[-2:])
        kind = case % 5
        if kind == 1:
            target = pred[(0,) * len(lead)].copy()      # an exact fit
        elif kind == 2:
            pred[rng.random(pred.shape) < 0.3] = 0.0
            target = np.zeros(target.shape)
        elif kind == 3:
            target = rng.normal(size=pred.shape)         # one per member
        yield cfg, d, pred, target


def test_row_sums_replay_numpy_sum_bit_for_bit():
    # every sum over time in the kernel replays np.sum(axis=1); a numpy that
    # sums in another order fails here instead of moving the loss's bits.
    # A NaN's payload and sign follow which operand numpy's compiled loop
    # puts first, which no artifact can hold (strict JSON refuses NaN), so
    # every NaN is compared as one value.
    rng = np.random.default_rng(40)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    for m in list(range(1, 41)) + [129, 136, 255, 509]:
        x = rng.normal(size=(300, m)) * 10.0 ** rng.integers(-5, 5, (300, 1))
        spots = rng.random(x.shape) < 0.05
        x[spots] = rng.choice(specials, size=int(spots.sum()))
        x[:20] = -0.0
        x[20:40] = rng.choice([0.0, -0.0], size=(20, m))
        x[40:60] = rng.choice(specials, size=(20, m))
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.sum(x, axis=1)
            got = _row_sums(np.ascontiguousarray(x.T))
        assert not np.signbit(want[:40]).any()
        want, got = (np.where(np.isnan(a), np.nan, a) for a in (want, got))
        assert np.array_equal(want.view(np.uint64), got.view(np.uint64)), m


@pytest.mark.parametrize("seed", [0, 1])
def test_time_major_kernel_matches_the_row_major_one_bit_for_bit(seed):
    for cfg, d, pred, target in _grid_cases(60, seed):
        for with_grad in (True, False):
            want = _rowmajor_composite(pred, target, cfg, d, with_grad)
            if with_grad:
                got = composite_loss(pred, target, cfg, n_channels=d)
                assert np.array_equal(_bits(got[1]), _bits(want[1]))
            else:
                got = (composite_value(pred, target, cfg, n_channels=d),)
            assert _bits(got[0]).tobytes() == _bits(want[0]).tobytes()
        r = np.broadcast_to(pred - target, pred.shape)[..., :pred.shape[-1] // d]
        for call, ref in ((ljb_statistic, _rowmajor_statistic),
                          (ljb_loss, _rowmajor_loss)):
            got, want = call(r, cfg), ref(r, cfg)
            assert type(got[0]) is type(want[0])
            assert _bits(got[0]).tobytes() == _bits(want[0]).tobytes()
            assert np.array_equal(_bits(got[1]), _bits(want[1]))


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
    _, per_lag = ljb_statistic(r, LossConfig(lags=2, epsilon=1e-300))
    assert np.max(np.abs(per_lag - [-0.75, 0.5])) < 1e-15


def test_autocorr_constant_row():
    n = 10
    r = np.full((1, n), 3.0)
    _, per_lag = ljb_statistic(r, LossConfig(lags=5, epsilon=1e-300))
    expect = np.array([(n - k) / n for k in range(1, 6)])
    assert np.max(np.abs(per_lag - expect)) < 1e-12


def test_autocorr_lag_out_of_range():
    r = np.ones((1, 4))
    with pytest.raises(DomainError):
        ljb_statistic(r, LossConfig(lags=4))
    with pytest.raises(DomainError):
        ljb_statistic(r, LossConfig(lags=0))


def test_ljb_statistic_alternating_is_42():
    r = np.array([[1.0, -1.0] * 5])
    stat, _ = ljb_statistic(r, TINY)
    assert abs(stat - 42.0) < 1e-9


def test_ljb_statistic_batch_average():
    row = np.array([1.0, -1.0] * 5)
    stacked = np.vstack([row, row, row])
    assert abs(ljb_statistic(stacked, TINY)[0] - 42.0) < 1e-9


def test_ljb_statistic_scale_invariant():
    r = RngState(0).normal(size=(8, 20))
    a, _ = ljb_statistic(r, TINY)
    b, _ = ljb_statistic(100.0 * r, TINY)
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_ljb_statistic_acf_matches_reference_bitwise():
    # the kernel's rho is the reference's, bit for bit, at every shape
    rng = RngState(21)
    for b, n, lags in [(1, 2, 1), (3, 6, 5), (17, 10, 5), (64, 25, 9), (5, 40, 39)]:
        r = rng.normal(size=(b, n))
        for eps in (1e-8, 1e-300):
            _, acf = ljb_statistic(r, LossConfig(lags=lags, epsilon=eps))
            assert acf.shape == (lags,)
            assert np.array_equal(acf, _acf_reference(r, lags, eps))


def test_ljb_statistic_lags_guard():
    with pytest.raises(DomainError):
        ljb_statistic(np.ones((1, 4)), LossConfig(lags=5))


def test_ljb_white_noise_calibration():
    # statistic is asymptotically chi-square(L): mean should sit near L = 5
    r = RngState(99).normal(size=(500, 500))
    stat, _ = ljb_statistic(r, LossConfig(lags=5))
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
            assert ljb_statistic(resid, cfg)[0] == nv


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


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


_STACKED = {
    # name -> (call, member shapes): windows up to 16, images below and
    # above numpy's 8-wide unrolled sum, one-row batches
    "mse": (lambda x, t: mse(x, t), [(1, 1), (1, 7), (3, 16), (5, 9)]),
    "ljb_loss": (lambda x, t: ljb_loss(x, LossConfig(lags=3)),
                 [(1, 4), (1, 16), (3, 9), (6, 16)]),
    "ljb_statistic": (lambda x, t: ljb_statistic(x, LossConfig(lags=3)),
                      [(1, 4), (1, 16), (3, 9), (6, 16)]),
    "ljb_loss_2d": (lambda x, t: ljb_loss_2d(x, LossConfig(two_d_lags=2)),
                    [(3, 3), (5, 7), (8, 8), (11, 9), (17, 23)]),
}


@pytest.mark.parametrize("name", sorted(_STACKED))
@pytest.mark.parametrize("lead", [(), (1,), (4,), (2, 3)])
def test_stacked_losses_match_members_bit_for_bit(name, lead):
    call, shapes = _STACKED[name]
    rng = RngState(31)
    for shape in shapes:
        x = rng.normal(size=lead + shape) * 10.0 ** rng.uniform(
            size=(1,), low=-3.0, high=3.0)[0]
        # mse: a target without the member axes is shared by every member
        shared = rng.normal(size=shape)
        value, second = call(x, shared)
        if not lead:
            assert isinstance(value, float)
        else:
            assert value.shape == lead
        assert second.shape == (lead + shape if name != "ljb_statistic"
                                else lead + (3,))
        for idx in np.ndindex(*lead):
            m_value, m_second = call(x[idx], shared)
            assert isinstance(m_value, float)
            assert _bits(value[idx] if lead else value) == _bits(m_value)
            assert np.array_equal(_bits(second[idx]), _bits(m_second))
        if name == "mse" and lead:
            # and a target with them gives each member its own
            own = rng.normal(size=lead + shape)
            value, grad = mse(x, own)
            for idx in np.ndindex(*lead):
                m_value, m_grad = mse(x[idx], own[idx])
                assert _bits(value[idx]) == _bits(m_value)
                assert np.array_equal(_bits(grad[idx]), _bits(m_grad))


def test_losses_reject_inputs_without_a_member_shape():
    with pytest.raises(ShapeError):
        mse(np.zeros(4), np.zeros(4))
    with pytest.raises(ShapeError):
        mse(np.zeros((2, 3, 4)), np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        ljb_loss(np.zeros(8), LossConfig(lags=2))
    with pytest.raises(DomainError):
        ljb_statistic(np.zeros((2, 3, 4)), LossConfig(lags=4))
    with pytest.raises(DomainError):
        ljb_loss_2d(np.zeros((2, 9, 3)), LossConfig(two_d_lags=3))


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
    lv, lg = _ljb2d_reference(img, 2, 1e-8)
    nv, ng = ljb_loss_2d(img, LossConfig(two_d_lags=2, epsilon=1e-8))
    assert abs(lv - nv) < 1e-10 * max(1.0, abs(nv))
    assert np.allclose(lg, ng, rtol=1e-10, atol=1e-12)


def test_ljb_2d_lag_guard():
    with pytest.raises(DomainError):
        ljb_loss_2d(np.zeros((3, 8)), LossConfig(two_d_lags=3))
    with pytest.raises(ShapeError):
        ljb_loss_2d(np.zeros(4), LossConfig())
