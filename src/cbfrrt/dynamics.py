"""Unicycle kinematics, obstacle motion, and fixed-step closed-loop integration.

State: x = [x1, x2, theta], control u = [v, omega]:

    dx1/dt    = v * cos(theta)
    dx2/dt    = v * sin(theta)
    dtheta/dt = omega

Obstacles are disks whose centers move at constant velocity. Integration is
classical fixed-step RK4 under zero-order-hold control: the controller is
queried once per node and its output held constant over the step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class RobotState(NamedTuple):
    """Unicycle configuration. theta is unnormalized (accumulates turns)."""

    x1: float
    x2: float
    theta: float

    def position(self) -> tuple[float, float]:
        return (self.x1, self.x2)


class ControlInput(NamedTuple):
    v: float
    omega: float


@dataclass(frozen=True)
class CircularObstacle:
    """Moving disk: center0 at t=0, constant velocity, fixed radius > 0."""

    center0: tuple[float, float]
    velocity: tuple[float, float]
    radius: float

    def is_static(self) -> bool:
        return self.velocity[0] == 0.0 and self.velocity[1] == 0.0


class TrajectorySample(NamedTuple):
    """One integration node. control is the input held on [t, t + dt); the
    final sample repeats the last applied control (nothing is applied after it)."""

    t: float
    state: RobotState
    control: ControlInput


class Trajectory:
    """Integration nodes in one flat buffer of doubles, 6 per node in CSV
    column order (t, x1, x2, theta, v, omega), with uniform dt spacing; the
    last interval may be shorter so the final timestamp lands exactly on the
    horizon. control (v, omega) is the input held on [t, t + dt); the final
    node repeats the last applied control.

    An array('d') holds no float objects and is not tracked by the cyclic
    garbage collector, and its buffer gives numpy a zero-copy view."""

    __slots__ = ("data",)

    COLUMNS = ("t", "x1", "x2", "theta", "v", "omega")

    def __init__(self, data: array):
        self.data = data

    def __len__(self) -> int:
        return len(self.data) // 6

    @property
    def samples(self) -> list[TrajectorySample]:
        """The nodes as TrajectorySample rows, built on each access."""
        d = self.data
        return [TrajectorySample(d[i], RobotState(d[i + 1], d[i + 2], d[i + 3]),
                                 ControlInput(d[i + 4], d[i + 5]))
                for i in range(0, len(d), 6)]

    @property
    def t0(self) -> float:
        return self.data[0]

    @property
    def t_end(self) -> float:
        return self.data[-6]

    def path_length(self) -> float:
        x1 = self.data[1::6]
        x2 = self.data[2::6]
        total = 0.0
        for a1, a2, b1, b2 in zip(x1, x2, x1[1:], x2[1:]):
            total += math.hypot(b1 - a1, b2 - a2)
        return total


# A controller may return any (v, omega) pair: a ControlInput or a plain tuple.
Controller = Callable[[RobotState, float], Optional[tuple[float, float]]]


def obstacle_center_at(obstacle: CircularObstacle, t: float) -> tuple[float, float]:
    """Disk center at time t: constant-velocity extrapolation of center0 (exact)."""
    return (
        obstacle.center0[0] + obstacle.velocity[0] * t,
        obstacle.center0[1] + obstacle.velocity[1] * t,
    )


def rk4_step(state: RobotState, control: tuple[float, float], dt: float) -> RobotState:
    """One classical 4th-order Runge-Kutta step under zero-order-hold control
    (v, omega)."""
    x1, x2, th = state
    v, w = control

    # k_i evaluated inline; only theta varies across stages for this model.
    k1x = v * math.cos(th)
    k1y = v * math.sin(th)
    th2 = th + 0.5 * dt * w
    k2x = v * math.cos(th2)
    k2y = v * math.sin(th2)
    # k3 heading equals k2 heading (dtheta/dt is state-independent).
    th4 = th + dt * w
    k4x = v * math.cos(th4)
    k4y = v * math.sin(th4)

    # tuple.__new__ skips the Python-level NamedTuple __new__, which would
    # run once per node; the result is still a RobotState.
    return tuple.__new__(RobotState, (
        x1 + dt / 6.0 * (k1x + 4.0 * k2x + k4x),
        x2 + dt / 6.0 * (k1y + 4.0 * k2y + k4y),
        th4,
    ))


def integrate_closed_loop(
    initial: RobotState,
    t0: float,
    horizon: float,
    dt: float,
    controller: Controller,
) -> Optional[Trajectory]:
    """Integrate the closed loop over [t0, t0 + horizon] with step dt.

    The controller is queried at each node and returns a (v, omega) pair,
    a ControlInput or any other 2-sequence of floats, or None (e.g. an
    infeasible safety QP); on None the whole trajectory is discarded and
    None is returned. Steps are uniform except the last, which is shortened
    so the final timestamp equals t0 + horizon exactly.

    Args:
        initial: state at t0.
        t0: start time.
        horizon: integration span (> 0).
        dt: step size (> 0).
        controller: maps (state, t) to a (v, omega) pair, or None on failure.

    Returns:
        Trajectory with len = number of nodes, or None if the controller
        failed at any node.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")

    n_full = int(math.floor(horizon / dt + 1e-9))
    remainder = horizon - n_full * dt
    has_tail = remainder > 1e-9 * max(1.0, abs(horizon))

    rows: list[float] = []
    state = initial
    t = t0
    n_steps = n_full + (1 if has_tail else 0)
    for k in range(n_steps):
        control = controller(state, t)
        if control is None:
            return None
        rows += (t, *state, *control)
        step = dt if k < n_full else remainder
        state = rk4_step(state, control, step)
        # Reassign instead of accumulating so the final node is exact.
        t = t0 + horizon if k == n_steps - 1 else t0 + (k + 1) * dt
    if n_steps == 0:
        control = controller(state, t)
        if control is None:
            return None
    rows += (t0 + horizon, *state, *control)
    return Trajectory(array("d", rows))
