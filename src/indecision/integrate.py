"""Deterministic, seeded integration of the value dynamics.

Fixed-step classical Runge-Kutta (4th order).  Equilibrium is detected from
the vector-field residual at sampled states rather than from state
differences; near a bifurcation the transients are slow (growth rates of
order epsilon) and state-difference tests give false positives there.

A trajectory is a pure function of (Z0, model config, integrator config):
identical inputs give bitwise-identical output on one platform.  Because the
vector field is exactly equivariant and the RK4 update is elementwise,
integrating a permuted initial state yields the permuted trajectory bitwise,
and a start inside a synchrony subspace stays in it bitwise.

Divergence (a non-finite state, or one too large for the field's sums) is
reported in the result, not raised, so parameter sweeps survive unstable
regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, NetworkShape, _compiled_field, as_state

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "EquilibriumResult",
    "random_near_origin",
    "integrate",
    "fd_jacobian",
    "numerical_jacobian",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, residual threshold and sampling stride.

    Defaults: the right-hand side is smooth and bounded with O(1) negative
    eigenvalues, so h = 0.01 sits far inside the RK4 stability region;
    t_max = 200 suffices away from bifurcation (near-critical runs need a
    horizon of order 1/epsilon and should override it).
    """

    step: float = 0.01
    t_max: float = 200.0
    equilibrium_tol: float = 1e-9
    record_stride: int = 10

    def __post_init__(self):
        if not (self.step > 0 and self.t_max > 0 and self.step < self.t_max):
            raise ValueError("need 0 < step < t_max")
        if self.equilibrium_tol <= 0:
            raise ValueError("equilibrium_tol must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)

    def append(self, t: float, Z: np.ndarray):
        self.times.append(t)
        self.states.append(Z)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class EquilibriumResult:
    final: np.ndarray
    converged: bool
    residual: float
    elapsed_time: float
    diverged: bool = False


def random_near_origin(shape: NetworkShape, radius: float, seed: int) -> np.ndarray:
    """Random state with entries i.i.d. uniform on [-radius, radius].

    Drawn row-major from numpy's default PCG64 generator seeded with `seed`,
    so one (shape, radius, seed) triple always gives the same matrix.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    return rng.uniform(-radius, radius, size=(shape.m, shape.n))


def integrate(Z0, cfg: ModelConfig,
              icfg: IntegratorConfig) -> tuple[Trajectory, EquilibriumResult]:
    """Run RK4 from Z0 until the sampled residual drops below tolerance or
    t_max is reached.  The trajectory contains the initial state, every
    record_stride-th step, and the final state.

    Only the shape of Z0 is validated here; a non-finite state (initial or
    encountered mid-run) is reported as divergence with the blow-up time,
    never raised, so sweeps survive unstable parameter regions.  When a
    field evaluation cannot be summed (math.fsum overflows, or meets +inf
    and -inf in one column), the run is reported diverged at the current t
    with the state the step started from."""
    Z = np.array(Z0, dtype=float)
    if Z.shape != (cfg.shape.m, cfg.shape.n):
        raise ValueError(f"state shape {Z.shape} does not match network "
                         f"{cfg.shape.m}x{cfg.shape.n}")
    f = _compiled_field(cfg)
    h = icfg.step
    tol = icfg.equilibrium_tol
    stride = icfg.record_stride
    nstep = int(round(icfg.t_max / h))
    # 0-d arrays multiply an array faster than Python floats, with the same
    # IEEE products
    half_h, full_h, sixth_h = np.array(0.5 * h), np.array(h), np.array(h / 6.0)
    two = np.array(2.0)

    # states are rebound every step and never mutated, so the trajectory
    # keeps them without copies
    traj = Trajectory()
    t = 0.0
    converged = False
    diverged = False
    residual = float("inf")

    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while True:
                k1 = f(Z)
                # a non-finite Z gives a non-finite k1 through the -Z term
                if not np.isfinite(k1).all():
                    diverged = True
                    break
                sampled = (k % stride == 0)
                if sampled:
                    traj.append(t, Z)
                    residual = float(np.abs(k1).max())
                    if residual <= tol:
                        converged = True
                        break
                if k >= nstep:
                    if not sampled:
                        traj.append(t, Z)
                        residual = float(np.abs(k1).max())
                    converged = residual <= tol
                    break
                k2 = f(Z + half_h * k1)
                k3 = f(Z + half_h * k2)
                k4 = f(Z + full_h * k3)
                Z = Z + sixth_h * (k1 + two * k2 + two * k3 + k4)
                t += h
                k += 1
        except (OverflowError, ValueError):
            # raised by math.fsum inside a field evaluation
            diverged = True
    if diverged:
        residual = float("inf")
        if not traj.times or traj.times[-1] != t:
            traj.append(t, Z)

    return traj, EquilibriumResult(final=traj.final, converged=converged,
                                   residual=residual, elapsed_time=t,
                                   diverged=diverged)


def fd_jacobian(f, Z: np.ndarray, h_fd: float) -> np.ndarray:
    """Central-difference Jacobian of a state-to-state map, cells row-major."""
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    m, n = Z.shape
    N = m * n
    J = np.empty((N, N))
    for k in range(N):
        E = np.zeros((m, n))
        E[divmod(k, n)] = h_fd
        col = (f(Z + E) - f(Z - E)) / (2.0 * h_fd)
        if not np.isfinite(col).all():
            raise ValueError("non-finite entries in finite-difference column")
        J[:, k] = col.ravel()
    return J


def numerical_jacobian(Z, cfg: ModelConfig, h_fd: float) -> np.ndarray:
    """Finite-difference Jacobian of the model field at Z (mn x mn,
    row-major cell order)."""
    Z = as_state(Z, cfg.shape)
    return fd_jacobian(_compiled_field(cfg), Z, h_fd)


def trajectory_to_csv(traj: Trajectory, path):
    """Write a trajectory as CSV: header t,z_1_1,...,z_m_n (row-major), one
    row per sample, 17 significant digits."""
    m, n = traj.states[0].shape
    header = "t," + ",".join(f"z_{i + 1}_{j + 1}" for i in range(m) for j in range(n))
    lines = [header]
    for t, Z in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in [t] + Z.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
