"""Unicycle kinematics, obstacle motion, the step grid and the RK4 step.

State: x = [x1, x2, theta], control u = [v, omega]:

    dx1/dt    = v * cos(theta)
    dx2/dt    = v * sin(theta)
    dtheta/dt = omega

Obstacles are disks whose centers move at constant velocity. Integration is
classical fixed-step RK4 under zero-order-hold control: omega is chosen once
per node and held constant over the step; a straight step (omega = 0 from a
nonzero heading) reuses its heading's cosine and sine and makes no trig
call. The closed loop that chooses omega, the safety QP at each node, is
planner.integrate_closed_loop.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple


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


def _floats(value, shape: tuple[int, ...]):
    """value as a finite float or, for a shape such as (2,) or (2, 2), as
    nested tuples of them. TypeError for a bool or a non-number, LookupError
    for another shape, ArithmeticError for a value that is not finite, its
    subclass OverflowError for an integer too large for a float."""
    if shape:
        if not isinstance(value, (tuple, list)) or len(value) != shape[0]:
            raise LookupError
        return tuple(_floats(v, shape[1:]) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    if not math.isfinite(value := float(value)):
        raise ArithmeticError
    return value


def _tuples(value):
    """value with its lists as tuples, so that a message reads the same for a
    file's lists as for Python's tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def check_finite(owner, *names: str, **shapes: tuple[int, ...]) -> None:
    """The one number rule, which the file parsers leave to the dataclasses:
    set each of owner's fields in names to its value as a float, and each in
    shapes to nested tuples of floats of its shape ((3,) for x_init, (2, 2)
    for sample_bounds). Raise ValueError naming the first field that holds a
    bool (which would run as 0 or 1 and be written as true or false), a
    non-number, another shape, or a value that is not finite, an integer
    too large for a float included."""
    for name, shape in {**dict.fromkeys(names, ()), **shapes}.items():
        value = getattr(owner, name)
        try:
            object.__setattr__(owner, name, _floats(value, shape))
            continue
        except TypeError:
            rule = "hold numbers" if shape else "be a number"
        except LookupError:
            rule = f"hold {' x '.join(map(str, shape))} numbers"
        except ArithmeticError:
            rule = "be finite"
        raise ValueError(f"{name} must {rule}, got {_tuples(value)!r}")


def check_integer(value, name: str, minimum: int) -> None:
    """The one integer rule, of both params classes' max_iters and of the
    harness's seeds and thread count: an int >= minimum. Raise ValueError
    naming name for a bool (which would run as 0 or 1), a float (which is
    not truncated) or another non-int, and for a value below minimum."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class CircularObstacle:
    """Moving disk: center0 at t=0, constant velocity, fixed radius > 0.
    Construction and replace raise ValueError naming a bad field, and leave
    every field a float or a tuple of floats."""

    center0: tuple[float, float]
    velocity: tuple[float, float]
    radius: float

    def __post_init__(self):
        check_finite(self, "radius", center0=(2,), velocity=(2,))
        if not self.radius > 0.0:
            raise ValueError(f"radius must be > 0, got {self.radius}")

    def is_static(self) -> bool:
        return self.velocity[0] == 0.0 and self.velocity[1] == 0.0


class TrajectorySample(NamedTuple):
    """One integration node. control is the input held on [t, t + dt); the
    final sample repeats the last applied control (nothing is applied after it)."""

    t: float
    state: RobotState
    control: ControlInput


class Trajectory:
    """Timed nodes in one flat buffer of doubles, 6 per node in CSV column
    order (t, x1, x2, theta, v, omega). control (v, omega) is the input held
    until the next node; the final node repeats the last applied control.
    The spacing is the maker's: a closed-loop edge's nodes sit on
    step_grid's steps, a baseline polyline's on its vertices and a read
    CSV's on its rows' times.

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


def obstacle_center_at(obstacle: CircularObstacle, t: float) -> tuple[float, float]:
    """Disk center at time t: constant-velocity extrapolation of center0 (exact)."""
    return (
        obstacle.center0[0] + obstacle.velocity[0] * t,
        obstacle.center0[1] + obstacle.velocity[1] * t,
    )


def step_grid(horizon: float, dt: float) -> tuple[int, float, int]:
    """The integration grid over one horizon: (n_full, tail, n_steps).

    n_full uniform steps of dt, never rounding past the horizon, then, when
    they fall short of it, one shorter tail step, so the last node lands on
    the horizon exactly. n_steps counts both. Nothing is checked here: the
    one caller, planner.steer_constants, passes a validated PlannerParams'
    t_h and dt (finite, > 0, dt <= t_h), which makes n_steps >= 1.
    """
    n_full = int(math.floor(horizon / dt + 1e-9))
    if n_full * dt > horizon:
        n_full -= 1
    tail = horizon - n_full * dt
    has_tail = tail > 1e-9 * max(1.0, abs(horizon))
    return (n_full, tail, n_full + (1 if has_tail else 0))


def rk4_step(
    x1: float, x2: float, th: float, cos_t: float, sin_t: float,
    v: float, w: float, step: float,
) -> tuple[float, float, float, float, float]:
    """One classical 4th-order Runge-Kutta step of finite length step, under
    zero-order-hold control (v, w), from (x1, x2, th), whose heading cosine
    and sine are (cos_t, sin_t). Returns (x1, x2, th4, cos4, sin4): the new
    state and its heading cosine and sine, which the next step and the next
    node's rows reuse.

    A straight step (w == 0.0, th != 0.0) makes no trig call. Adding +0.0 or
    -0.0 to th leaves th bit for bit, except +0.0 added to -0.0, which gives
    +0.0; so for th != 0.0 every stage's heading is th itself and every
    stage reuses (cos_t, sin_t). The sums are the general path's, in its
    order, so both paths return the same floats."""
    # k_i evaluated inline; only theta varies across stages for this model.
    k1x = v * cos_t
    k1y = v * sin_t
    if w == 0.0 and th != 0.0:
        return (
            x1 + step / 6.0 * (k1x + 4.0 * k1x + k1x),
            x2 + step / 6.0 * (k1y + 4.0 * k1y + k1y),
            th,
            cos_t,
            sin_t,
        )
    th2 = th + 0.5 * step * w
    k2x = v * math.cos(th2)
    k2y = v * math.sin(th2)
    # k3 heading equals k2 heading (dtheta/dt is state-independent).
    th4 = th + step * w
    cos4 = math.cos(th4)
    sin4 = math.sin(th4)
    k4x = v * cos4
    k4y = v * sin4
    return (
        x1 + step / 6.0 * (k1x + 4.0 * k2x + k4x),
        x2 + step / 6.0 * (k1y + 4.0 * k2y + k4y),
        th4,
        cos4,
        sin4,
    )
