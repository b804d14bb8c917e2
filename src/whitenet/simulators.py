"""Deterministic physics generators for the experiment suite.

Three systems:

* actuated pendulum, gym convention: theta = 0 upright, torque input,
  semi-implicit Euler with the angular velocity clipped;
* planar double pendulum in free fall, angles measured from the downward
  vertical, standard Lagrangian equations integrated with classical RK4.
  The second link is light and short by default, a small hidden dynamic
  riding on the big one;
* a synthetic geared motor whose shaft couples to the rotor through a
  dead zone, the classic backlash nonlinearity.

``simulate`` rolls a system from its documented initial state, or a given
one, over an actuation sequence and records observation channels,
optionally adding i.i.d. Gaussian measurement noise.  Dynamics always evolve
on the noiseless state.  One rollout loop serves every system: it records
the state, then calls the system's single-step function below, so the
tested step is the one that makes the data.  It runs on Python floats: each
step is a handful of scalar operations, too small for numpy calls to pay
off.  The double pendulum's equations form their constant factors once per
rollout, in one stepper that its public accel and step functions share.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

SYSTEMS = ("pendulum", "double_pendulum", "backlash")


@dataclass
class PendulumParams:
    g: float = 10.0
    l: float = 1.0
    mass: float = 1.0
    dt: float = 0.05
    omega_clip: float = 8.0

    def __post_init__(self):
        for field in ("g", "l", "mass", "dt", "omega_clip"):
            if getattr(self, field) <= 0:
                raise DomainError(f"{field} must be positive")
        if self.dt > 0.05:
            raise DomainError(f"pendulum dt must be <= 0.05, got {self.dt}")


@dataclass
class DoublePendulumParams:
    m1: float = 1.0
    m2: float = 0.1
    l1: float = 1.0
    l2: float = 0.2
    g: float = 9.81
    dt: float = 0.01

    def __post_init__(self):
        for field in ("m1", "m2", "l1", "l2", "g", "dt"):
            if getattr(self, field) <= 0:
                raise DomainError(f"{field} must be positive")


@dataclass
class BacklashMotorParams:
    time_constant: float = 0.05
    gain: float = 2.0
    deadzone_halfwidth: float = 0.1
    dt: float = 0.02

    def __post_init__(self):
        if self.time_constant <= 0 or self.gain <= 0 or self.dt <= 0:
            raise DomainError("time_constant, gain, dt must be positive")
        if self.deadzone_halfwidth < 0:
            raise DomainError("deadzone_halfwidth must be >= 0")


@dataclass
class Trajectory:
    """Recorded observation channels plus the actuation that produced them."""

    states: np.ndarray          # (T, d)
    actions: np.ndarray         # (T, d_u), d_u may be 0
    dt: float
    state_names: tuple
    action_names: tuple

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise ShapeError("states and actions must be 2-D")
        if self.states.shape[0] != self.actions.shape[0]:
            raise ShapeError(
                f"states rows {self.states.shape[0]} != "
                f"actions rows {self.actions.shape[0]}")
        if self.states.shape[1] != len(self.state_names):
            raise ShapeError("state_names length must match state columns")
        if self.actions.shape[1] != len(self.action_names):
            raise ShapeError("action_names length must match action columns")
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.actions))):
            raise DomainError("trajectory contains non-finite values")
        self.state_names = tuple(self.state_names)
        self.action_names = tuple(self.action_names)


def wrap_angle(theta):
    """Wrap to the half-open interval (-pi, pi]."""
    return math.pi - ((math.pi - theta) % (2.0 * math.pi))


# ---------------------------------------------------------------------------
# Single steps (scalar, python): the documented dynamics.

def step_pendulum(state, u, p):
    """One semi-implicit Euler step of the gym-style actuated pendulum."""
    theta, omega = state
    acc = (3.0 * p.g / (2.0 * p.l)) * math.sin(theta) \
        + (3.0 / (p.mass * p.l * p.l)) * u
    omega = omega + p.dt * acc
    if omega > p.omega_clip:
        omega = p.omega_clip
    elif omega < -p.omega_clip:
        omega = -p.omega_clip
    theta = wrap_angle(theta + p.dt * omega)
    return theta, omega


def _dp_stepper(p):
    """(accel, step) closures for the double pendulum with params ``p``.

    ``accel(th1, w1, th2, w2)`` gives the angular accelerations (standard
    two-link equations, angles from the downward vertical).  ``step`` takes
    one classical RK4 step of ``(th1, w1, th2, w2, a1, a2)``, where (a1, a2)
    are the accelerations at the state: they are the step's first stage and
    the recorded alpha1, so each step evaluates them once.  Its input and
    params arguments are unused: the double pendulum is unactuated and ``p``
    is bound here.  Each constant factor is formed once, and each is the
    left-most operand of an expression evaluated left to right, so every
    value has the bits of the equations written out in full.
    """
    m2, l1, l2, dt = p.m2, p.l1, p.l2, p.dt
    sin, cos = math.sin, math.cos
    c_den = 2.0 * p.m1 + m2
    c_th1 = -p.g * c_den
    c_th12 = m2 * p.g
    m12 = p.m1 + m2
    g_m12 = p.g * m12
    half, sixth = 0.5 * dt, dt / 6.0

    def accel(th1, w1, th2, w2):
        delta = th1 - th2
        den = c_den - m2 * cos(2.0 * delta)
        s2, cd = 2.0 * sin(delta), cos(delta)
        w1l1, w2l2 = w1 * w1 * l1, w2 * w2 * l2
        return ((c_th1 * sin(th1) - c_th12 * sin(th1 - 2.0 * th2)
                 - s2 * m2 * (w2l2 + w1l1 * cd)) / (l1 * den),
                (s2 * (w1l1 * m12 + g_m12 * cos(th1) + w2l2 * m2 * cd))
                / (l2 * den))

    def step(state, _u, _p):
        th1, w1, th2, w2, a1, a2 = state
        v1, v2 = w1 + half * a1, w2 + half * a2
        b1, b2 = accel(th1 + half * w1, v1, th2 + half * w2, v2)
        x1, x2 = w1 + half * b1, w2 + half * b2
        c1, c2 = accel(th1 + half * v1, x1, th2 + half * v2, x2)
        y1, y2 = w1 + dt * c1, w2 + dt * c2
        d1, d2 = accel(th1 + dt * x1, y1, th2 + dt * x2, y2)
        th1 = th1 + sixth * (w1 + 2.0 * v1 + 2.0 * x1 + y1)
        w1 = w1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        th2 = th2 + sixth * (w2 + 2.0 * v2 + 2.0 * x2 + y2)
        w2 = w2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        return (th1, w1, th2, w2) + accel(th1, w1, th2, w2)

    return accel, step


def double_pendulum_accel(state, p):
    """Instantaneous angular accelerations (alpha1, alpha2) at ``state``."""
    return _dp_stepper(p)[0](*state)


def step_double_pendulum(state, p):
    """One classical RK4 step of the free-fall double pendulum."""
    accel, step = _dp_stepper(p)
    return step(tuple(state) + accel(*state), None, p)[:4]


def double_pendulum_energy(state, p):
    """Total mechanical energy, potential measured from both links hanging.

    The zero at the stable equilibrium makes relative-drift checks
    well-defined for any start, including ones where the pivot-referenced
    potential crosses zero.
    """
    th1, w1, th2, w2 = state
    kinetic = (0.5 * (p.m1 + p.m2) * p.l1 ** 2 * w1 ** 2
               + 0.5 * p.m2 * p.l2 ** 2 * w2 ** 2
               + p.m2 * p.l1 * p.l2 * w1 * w2 * math.cos(th1 - th2))
    potential = ((p.m1 + p.m2) * p.g * p.l1 * (1.0 - math.cos(th1))
                 + p.m2 * p.g * p.l2 * (1.0 - math.cos(th2)))
    return kinetic + potential


def step_backlash_motor(state, u, p):
    """One step of the geared motor: first-order rotor lag, dead-zone shaft."""
    theta_m, theta_s, omega_m = state
    omega_m = omega_m + p.dt * (p.gain * u - omega_m) / p.time_constant
    theta_m = theta_m + p.dt * omega_m
    gap = theta_m - theta_s
    beta = p.deadzone_halfwidth
    if gap > beta:
        theta_s = theta_m - beta
    elif gap < -beta:
        theta_s = theta_m + beta
    return theta_m, theta_s, omega_m


# ---------------------------------------------------------------------------
# Whole-trajectory rollouts: record the state, then take the step above.

def _rollout(step, state, inputs, p):
    """The state before each input, one row per input, stepped by ``step``."""
    rows = []
    for u in inputs:
        rows.append(state)
        state = step(state, u, p)
    return np.fromiter(itertools.chain.from_iterable(rows), np.float64,
                       count=len(rows) * len(state)).reshape(len(rows), -1)


# ---------------------------------------------------------------------------
# Actuation and rollout-to-Trajectory assembly.

def generate_actuation(rng, steps, amplitude, hold):
    """Piecewise-constant excitation: uniform draws held for ``hold`` steps."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if hold < 1:
        raise DomainError(f"hold must be >= 1, got {hold}")
    if amplitude < 0:
        raise DomainError(f"amplitude must be >= 0, got {amplitude}")
    n_levels = (steps + hold - 1) // hold
    levels = rng.uniform(size=n_levels, low=-amplitude, high=amplitude)
    u = np.repeat(levels, hold)[:steps]
    return u.reshape(-1, 1)


PENDULUM_CHANNELS = ("cos_theta", "sin_theta", "omega")
DOUBLE_PENDULUM_CHANNELS = ("theta1", "omega1", "alpha1")
BACKLASH_CHANNELS = ("theta_s", "omega_s")

PENDULUM_INIT = (math.pi, 0.0)                       # hanging at rest
DOUBLE_PENDULUM_INIT = (math.pi / 2, 0.0, math.pi / 2, 0.0)   # both at 90 deg
BACKLASH_INIT = (0.0, 0.0, 0.0)                      # at rest, gap closed


def simulate(system, params, actions, noise_sigma, rng, init_state=None):
    """Roll ``system`` over ``actions`` and record its observation channels.

    Pendulum records (cos theta, sin theta, omega); the double pendulum
    records only the big link, (theta1, omega1, alpha1), with alpha1 taken
    from the equations of motion at the noiseless state; the backlash motor
    records shaft position and a backward-difference shaft velocity, the way
    an encoder pipeline would produce it (0 at the first row).  The rollout
    starts from ``init_state``, in the state layout of the system's step
    function, or from the documented start when it is None.
    ``noise_sigma > 0`` adds i.i.d. Gaussian noise to every recorded
    channel; the underlying dynamics stay noiseless.  Bit-reproducible given
    the same seed and arguments.
    """
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim != 2:
        raise ShapeError(f"actions must be 2-D (T, d_u), got ndim={actions.ndim}")
    steps = actions.shape[0]
    if steps < 1:
        raise DomainError("need at least one step")
    if system not in SYSTEMS:
        raise ConfigError(f"unknown system {system!r}; choose from {SYSTEMS}")
    init = {"pendulum": PENDULUM_INIT, "double_pendulum": DOUBLE_PENDULUM_INIT,
            "backlash": BACKLASH_INIT}[system]
    if init_state is not None:
        if len(init_state) != len(init):
            raise ShapeError(f"{system} init_state needs {len(init)} values, "
                             f"got {len(init_state)}")
        init = tuple(float(x) for x in init_state)

    if system == "double_pendulum":
        if actions.shape[1] != 0:
            raise ShapeError("double pendulum is unactuated; pass (T, 0) actions")
        full = _rollout(_dp_stepper(params)[1],
                        init + double_pendulum_accel(init, params),
                        [None] * steps, params)
        clean = full[:, [0, 1, 4]]
        names, action_names = DOUBLE_PENDULUM_CHANNELS, ()
    else:
        if actions.shape[1] != 1:
            raise ShapeError(f"{system} takes exactly one action channel")
        u = actions[:, 0].tolist()
        if system == "pendulum":
            full = _rollout(step_pendulum, init, u, params)
            clean = np.column_stack([np.cos(full[:, 0]), np.sin(full[:, 0]),
                                     full[:, 1]])
            names = PENDULUM_CHANNELS
        else:
            full = _rollout(step_backlash_motor, init, u, params)
            omega_s = np.zeros(steps)
            omega_s[1:] = np.diff(full[:, 1]) / params.dt
            clean = np.column_stack([full[:, 1], omega_s])
            names = BACKLASH_CHANNELS
        action_names = ("u",)

    if noise_sigma < 0:
        raise DomainError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if noise_sigma > 0:
        clean = clean + rng.normal(size=clean.shape, sigma=noise_sigma)
    return Trajectory(clean, actions, params.dt, names, action_names)


def default_params(system):
    if system == "pendulum":
        return PendulumParams()
    if system == "double_pendulum":
        return DoublePendulumParams()
    if system == "backlash":
        return BacklashMotorParams()
    raise ConfigError(f"unknown system {system!r}; choose from {SYSTEMS}")
