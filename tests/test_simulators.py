import math

import numpy as np
import pytest

from whitenet.errors import ConfigError, DomainError, ShapeError
from whitenet.numerics import RngState
from whitenet.simulators import (
    BacklashMotorParams,
    DoublePendulumParams,
    PendulumParams,
    Trajectory,
    double_pendulum_accel,
    double_pendulum_energy,
    generate_actuation,
    simulate,
    step_backlash_motor,
    step_double_pendulum,
    step_pendulum,
    wrap_angle,
)


def test_param_validation():
    with pytest.raises(DomainError):
        PendulumParams(dt=0.1)
    with pytest.raises(DomainError):
        PendulumParams(g=-1.0)
    with pytest.raises(DomainError):
        DoublePendulumParams(m2=0.0)
    with pytest.raises(DomainError):
        BacklashMotorParams(deadzone_halfwidth=-0.1)


def test_wrap_angle_half_open():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-12


def test_pendulum_fixed_points():
    p = PendulumParams()
    assert step_pendulum((0.0, 0.0), 0.0, p) == (0.0, 0.0)
    theta, omega = step_pendulum((math.pi, 0.0), 0.0, p)
    assert abs(theta - math.pi) < 1e-12
    assert abs(omega) < 1e-12


def test_pendulum_hand_step():
    theta, omega = step_pendulum((math.pi / 2, 0.0), 0.0, PendulumParams())
    assert abs(omega - 0.75) < 1e-12
    assert abs(theta - (math.pi / 2 + 0.0375)) < 1e-12


def test_pendulum_omega_clip_and_wrap():
    p = PendulumParams()
    theta, omega = (math.pi / 2, 7.9)
    for _ in range(200):
        theta, omega = step_pendulum((theta, omega), 2.0, p)
        assert abs(omega) <= p.omega_clip
        assert -math.pi < theta <= math.pi


def test_double_pendulum_stable_equilibrium():
    p = DoublePendulumParams()
    state = step_double_pendulum((0.0, 0.0, 0.0, 0.0), p)
    assert np.allclose(state, 0.0, atol=1e-15)


def test_double_pendulum_energy_drift():
    p = DoublePendulumParams()
    state = (math.pi / 2, 0.0, math.pi / 2, 0.0)
    e0 = double_pendulum_energy(state, p)
    assert e0 > 0
    worst = 0.0
    for _ in range(10000):
        state = step_double_pendulum(state, p)
        worst = max(worst, abs(double_pendulum_energy(state, p) - e0))
    assert worst / e0 < 1e-3


def test_double_pendulum_m2_limit_matches_single():
    # with a massless second link the big link is a plain pendulum
    p = DoublePendulumParams(m2=1e-12)

    def single_rk4(th, w):
        def f(th, w):
            return w, -(p.g / p.l1) * math.sin(th)
        k1 = f(th, w)
        k2 = f(th + 0.5 * p.dt * k1[0], w + 0.5 * p.dt * k1[1])
        k3 = f(th + 0.5 * p.dt * k2[0], w + 0.5 * p.dt * k2[1])
        k4 = f(th + p.dt * k3[0], w + p.dt * k3[1])
        return (th + p.dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                w + p.dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))

    state = (1.0, 0.0, 0.5, 0.0)
    th, w = 1.0, 0.0
    for _ in range(100):
        state = step_double_pendulum(state, p)
        th, w = single_rk4(th, w)
        assert abs(state[0] - th) < 1e-6


def test_double_pendulum_accel_hand_value():
    # both links at 90 degrees, at rest: alpha1 = -g by direct substitution
    p = DoublePendulumParams()
    a1, a2 = double_pendulum_accel((math.pi / 2, 0.0, math.pi / 2, 0.0), p)
    assert abs(a1 + p.g) < 1e-12


def _dp_accel(th1, w1, th2, w2, m1, m2, l1, l2, g):
    # reference: the two-link equations written out in full
    delta = th1 - th2
    den = 2.0 * m1 + m2 - m2 * math.cos(2.0 * delta)
    a1 = (-g * (2.0 * m1 + m2) * math.sin(th1)
          - m2 * g * math.sin(th1 - 2.0 * th2)
          - 2.0 * math.sin(delta) * m2
          * (w2 * w2 * l2 + w1 * w1 * l1 * math.cos(delta))) / (l1 * den)
    a2 = (2.0 * math.sin(delta)
          * (w1 * w1 * l1 * (m1 + m2) + g * (m1 + m2) * math.cos(th1)
             + w2 * w2 * l2 * m2 * math.cos(delta))) / (l2 * den)
    return a1, a2


def _dp_rk4(th1, w1, th2, w2, a1, a2, p):
    # reference: classical RK4 with its k-tuples, (a1, a2) the first stage
    m1, m2, l1, l2, g, dt = p.m1, p.m2, p.l1, p.l2, p.g, p.dt
    k1 = (w1, a1, w2, a2)
    a1, a2 = _dp_accel(th1 + 0.5 * dt * k1[0], w1 + 0.5 * dt * k1[1],
                       th2 + 0.5 * dt * k1[2], w2 + 0.5 * dt * k1[3],
                       m1, m2, l1, l2, g)
    k2 = (w1 + 0.5 * dt * k1[1], a1, w2 + 0.5 * dt * k1[3], a2)
    a1, a2 = _dp_accel(th1 + 0.5 * dt * k2[0], w1 + 0.5 * dt * k2[1],
                       th2 + 0.5 * dt * k2[2], w2 + 0.5 * dt * k2[3],
                       m1, m2, l1, l2, g)
    k3 = (w1 + 0.5 * dt * k2[1], a1, w2 + 0.5 * dt * k2[3], a2)
    a1, a2 = _dp_accel(th1 + dt * k3[0], w1 + dt * k3[1],
                       th2 + dt * k3[2], w2 + dt * k3[3],
                       m1, m2, l1, l2, g)
    k4 = (w1 + dt * k3[1], a1, w2 + dt * k3[3], a2)
    s = dt / 6.0
    return (th1 + s * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            w1 + s * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            th2 + s * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
            w2 + s * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("params", [
    {}, {"m2": 1e-12}, {"l2": 1.0}, {"dt": 0.005},
    {"m1": 1.3, "l1": 0.7, "g": 9.7}])
def test_double_pendulum_matches_written_equations_bit_for_bit(params):
    # the stepper forms its constant factors once; every value it gives must
    # still be the bits of the equations written out in full
    p = DoublePendulumParams(**params)
    rng = np.random.default_rng(11)
    starts = np.column_stack([rng.uniform(-math.pi, math.pi, 60),
                              rng.uniform(-20.0, 20.0, 60),
                              rng.uniform(-math.pi, math.pi, 60),
                              rng.uniform(-20.0, 20.0, 60)]).tolist()
    for start in starts:
        accel = _dp_accel(*start, p.m1, p.m2, p.l1, p.l2, p.g)
        assert (_bits(double_pendulum_accel(start, p)) == _bits(accel)).all()
        assert (_bits(step_double_pendulum(start, p))
                == _bits(_dp_rk4(*start, *accel, p))).all()
    for start in starts[:8]:
        traj = simulate("double_pendulum", p, np.zeros((40, 0)), 0.0,
                        RngState(0), init_state=start)
        rows, state = [], tuple(start)
        for _ in range(40):
            accel = _dp_accel(*state, p.m1, p.m2, p.l1, p.l2, p.g)
            rows.append((state[0], state[1], accel[0]))
            state = _dp_rk4(*state, *accel, p)
        assert (_bits(traj.states) == _bits(rows)).all()


def test_backlash_no_deadzone_tracks_exactly():
    p = BacklashMotorParams(deadzone_halfwidth=0.0)
    state = (0.0, 0.0, 0.0)
    for _ in range(100):
        state = step_backlash_motor(state, 1.0, p)
        assert state[0] == state[1]


def test_backlash_small_motion_stays_inside_deadzone():
    p = BacklashMotorParams(deadzone_halfwidth=0.5, gain=1.0, time_constant=0.1)
    state = (0.0, 0.0, 0.0)
    for _ in range(3):
        state = step_backlash_motor(state, 0.1, p)
    assert abs(state[0]) < p.deadzone_halfwidth
    assert state[1] == 0.0


def test_backlash_invariant_random_steps():
    p = BacklashMotorParams()
    beta = p.deadzone_halfwidth
    state = (0.0, 0.0, 0.0)
    engaged = False
    for u in RngState(0).uniform(size=20000, low=-3.0, high=3.0):
        state = step_backlash_motor(state, u, p)
        gap = abs(state[0] - state[1])
        assert gap <= beta + 1e-9
        if abs(gap - beta) < 1e-12:
            engaged = True
    assert engaged  # coupling actually fired, gap pinned at exactly beta


def test_generate_actuation_contract():
    rng = RngState(1)
    u = generate_actuation(rng, 100, 0.5, 7)
    assert u.shape == (100, 1)
    assert np.all(np.abs(u) <= 0.5)
    # held levels: constant inside each block of 7
    for start in range(0, 98, 7):
        block = u[start:min(start + 7, 100), 0]
        assert np.all(block == block[0])
    assert np.array_equal(generate_actuation(rng, 50, 0.0, 5), np.zeros((50, 1)))
    wide = generate_actuation(RngState(2), 5000, 2.0, 1)
    assert np.max(np.abs(wide)) > 1.5  # amplitude-2 regime actually explores
    with pytest.raises(DomainError):
        generate_actuation(rng, 10, 0.5, 0)
    with pytest.raises(DomainError):
        generate_actuation(rng, 0, 0.5, 1)


def test_simulate_is_bit_deterministic():
    acts = generate_actuation(RngState(1), 300, 0.5, 5)
    a = simulate("pendulum", PendulumParams(), acts, 0.01, RngState(2))
    b = simulate("pendulum", PendulumParams(), acts, 0.01, RngState(2))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)


def test_simulate_pendulum_channels():
    acts = generate_actuation(RngState(3), 100, 0.5, 5)
    traj = simulate("pendulum", PendulumParams(), acts, 0.0, RngState(0))
    assert traj.state_names == ("cos_theta", "sin_theta", "omega")
    assert traj.action_names == ("u",)
    # starts hanging down: cos = -1, sin = 0
    assert abs(traj.states[0, 0] + 1.0) < 1e-12
    assert abs(traj.states[0, 1]) < 1e-12
    norms = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_simulate_double_pendulum_hides_second_link():
    traj = simulate("double_pendulum", DoublePendulumParams(), np.zeros((200, 0)),
                    0.0, RngState(0))
    assert traj.states.shape == (200, 3)
    assert traj.state_names == ("theta1", "omega1", "alpha1")
    assert abs(traj.states[0, 2] + 9.81) < 1e-12  # alpha1 at the documented start


def test_simulate_double_pendulum_records_alpha1_of_each_step():
    # the rollout takes alpha1 from its first RK4 stage; rolling the single
    # step by hand gives the states it must be taken at, step for step
    p = DoublePendulumParams()
    state = (2.0, 0.5, -1.0, 1.5)
    traj = simulate("double_pendulum", p, np.zeros((300, 0)), 0.0,
                    RngState(0), init_state=state)
    for row in traj.states:
        assert row[0] == state[0] and row[1] == state[1]
        assert row[2] == double_pendulum_accel(state, p)[0]
        state = step_double_pendulum(state, p)


def _hand_rollout(step, state, actions, p):
    """The states before each action, stepped by hand."""
    rows = []
    for u in actions[:, 0]:
        rows.append(state)
        state = step(state, float(u), p)
    return np.array(rows)


@pytest.mark.parametrize("init", [None, (0.3, -1.0)])
def test_simulate_pendulum_is_the_step_rolled_by_hand(init):
    p = PendulumParams()
    acts = generate_actuation(RngState(7), 400, 2.0, 3)
    traj = simulate("pendulum", p, acts, 0.0, RngState(0), init_state=init)
    full = _hand_rollout(step_pendulum, init or (math.pi, 0.0), acts, p)
    assert np.array_equal(traj.states[:, 0], np.cos(full[:, 0]))
    assert np.array_equal(traj.states[:, 1], np.sin(full[:, 0]))
    assert np.array_equal(traj.states[:, 2], full[:, 1])


@pytest.mark.parametrize("init", [None, (0.4, 0.25, -1.5)])
def test_simulate_backlash_is_the_step_rolled_by_hand(init):
    p = BacklashMotorParams()
    acts = generate_actuation(RngState(8), 400, 2.0, 7)
    traj = simulate("backlash", p, acts, 0.0, RngState(0), init_state=init)
    full = _hand_rollout(step_backlash_motor, init or (0.0, 0.0, 0.0), acts, p)
    assert np.array_equal(traj.states[:, 0], full[:, 1])
    assert traj.states[0, 1] == 0.0
    assert np.array_equal(traj.states[1:, 1], np.diff(full[:, 1]) / p.dt)


def test_simulate_backlash_starts_from_init_state():
    p = BacklashMotorParams()
    acts = np.zeros((5, 1))
    rest = simulate("backlash", p, acts, 0.0, RngState(0))
    assert np.all(rest.states == 0.0)
    moved = simulate("backlash", p, acts, 0.0, RngState(0),
                     init_state=(1.0, 0.95, 0.0))
    assert moved.states[0, 0] == 0.95   # shaft position, inside the dead zone
    assert np.all(moved.states[:, 0] == 0.95)


def test_simulate_init_state_length_guard():
    cases = [("pendulum", PendulumParams(), np.zeros((10, 1)), (0.1, 0.0, 0.0)),
             ("double_pendulum", DoublePendulumParams(), np.zeros((10, 0)),
              (0.1, 0.0)),
             ("backlash", BacklashMotorParams(), np.zeros((10, 1)), (0.0, 0.0))]
    for system, p, acts, init in cases:
        with pytest.raises(ShapeError):
            simulate(system, p, acts, 0.0, RngState(0), init_state=init)


def test_simulate_backlash_velocity_is_backward_difference():
    p = BacklashMotorParams()
    acts = generate_actuation(RngState(4), 150, 1.0, 10)
    traj = simulate("backlash", p, acts, 0.0, RngState(0))
    assert traj.state_names == ("theta_s", "omega_s")
    assert traj.states[0, 1] == 0.0
    diffs = np.diff(traj.states[:, 0]) / p.dt
    assert np.allclose(traj.states[1:, 1], diffs, atol=1e-12)


def test_simulate_noise_added_only_to_observations():
    acts = generate_actuation(RngState(5), 100, 0.5, 5)
    clean = simulate("pendulum", PendulumParams(), acts, 0.0, RngState(6))
    noisy = simulate("pendulum", PendulumParams(), acts, 0.01, RngState(6))
    delta = noisy.states - clean.states
    assert 0.005 < delta.std() < 0.02  # observation noise at the requested scale
    assert np.array_equal(noisy.actions, clean.actions)


def test_simulate_guards():
    with pytest.raises(ConfigError):
        simulate("cartpole", PendulumParams(), np.zeros((10, 1)), 0.0, RngState(0))
    with pytest.raises(ShapeError):
        simulate("pendulum", PendulumParams(), np.zeros((10, 2)), 0.0, RngState(0))
    with pytest.raises(ShapeError):
        simulate("double_pendulum", DoublePendulumParams(), np.zeros((10, 1)),
                 0.0, RngState(0))
    with pytest.raises(DomainError):
        simulate("pendulum", PendulumParams(), np.zeros((10, 1)), -0.1, RngState(0))


def test_trajectory_validation():
    with pytest.raises(ShapeError):
        Trajectory(np.zeros((5, 2)), np.zeros((4, 1)), 0.05, ("a", "b"), ("u",))
    with pytest.raises(ShapeError):
        Trajectory(np.zeros((5, 2)), np.zeros((5, 1)), 0.05, ("a",), ("u",))
    with pytest.raises(DomainError):
        Trajectory(np.full((5, 2), np.nan), np.zeros((5, 1)), 0.05,
                   ("a", "b"), ("u",))
