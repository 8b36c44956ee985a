"""Deterministic, seeded integration of the value dynamics.

Fixed-step classical Runge-Kutta (4th order) carries a run through the
escape from its start, which decides the basin; a gated Newton finish
replaces the slow last approach.  Scenario runs do not choose the step:
stable_step derives it from the model, so that no RK4 update amplifies a
decaying linear mode at any state: the Jacobian at any state is within a
closed-form distance of the symmetric Jacobian at the centre of the slope
ranges, whose four isotypic eigenvalues are closed-form too, so Bauer-Fike
bounds its spectrum, and the step fits that bound into the RK4 stability
region.  The Newton finish, not the step, sets the accuracy of a final.

Equilibrium is detected from the vector-field residual at sampled states
rather than from state differences; near a bifurcation the transients are
slow (growth rates of order epsilon) and state-difference tests give false
positives there.  A residual within tolerance counts as convergence only
where the closed-form Jacobian of the field is stable (spectral abscissa
< 0), so a run that passes close to an unstable equilibrium keeps going.

Newton finish.  Once a sampled residual is at most sqrt(equilibrium_tol)
and the Jacobian there is stable, up to NEWTON_STEPS Newton steps start
from the RK4 state.  An iterate with residual <= equilibrium_tol and a
stable Jacobian ends the run and replaces that sample; otherwise RK4 goes
on from its own state, untouched.  The gate sits at sqrt(tol), not at the
first stable Jacobian: from further out most Newton attempts fail or leave
the state's neighbourhood, while at sqrt(tol) the correction is of order
sqrt(tol) / |abscissa|.  Each correction is solved matrix-free by GMRES on
the field's Jacobian-vector product, with every inner product and norm a
math.fsum: LAPACK (used only for the eigenvalues of the gate) pivots
differently on a permuted system, while these scalars do not depend on the
order of the cells.

A trajectory is a pure function of (Z0, model config, integrator config):
identical inputs give bitwise-identical output on one platform.  Because
the vector field and its Jacobian-vector product are exactly equivariant
and every other update is elementwise, integrating a permuted initial state
yields the permuted trajectory and final bitwise, and a start inside a
synchrony subspace stays in it bitwise, through the Newton finish too.

Batches.  integrate_batch runs the starts of one config together: they
share the step and t, each RK4 stage evaluates the field of the whole stack
in one call, and a start leaves the stack when it stops.  The field of a
stack is the field of each of its states (the sums are per state, the rest
is elementwise), so a start's trajectory and result are the same, bitwise,
whatever batch it runs in and in whatever order; integrate is the batch of
one.

Divergence (a non-finite state, or one too large for the field's sums) is
reported in the result, not raised, so parameter sweeps survive unstable
regions; in a batch it ends only the starts it occurs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .model import (ModelConfig, NetworkShape, _compiled_field, _compiled_linearization,
                    as_state, jacobian)

__all__ = [
    "IntegratorConfig",
    "RK4_RADIUS",
    "stable_step",
    "Trajectory",
    "EquilibriumResult",
    "random_near_origin",
    "integrate",
    "integrate_batch",
    "numerical_jacobian",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and horizon; the residual threshold equilibrium_tol is a
    class constant, the same for every run.  Scenario runs take
    step = stable_step(cfg) and a horizon sized from their growth rate
    (Scenario.integrator_config); the defaults serve direct calls.
    """

    step: float = 0.01
    t_max: float = 200.0
    equilibrium_tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        if not 0 < self.step < self.t_max < math.inf:
            raise ValueError("need 0 < step < t_max < inf")


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
    """Where a run ended and why.

    stop_reason is "tolerance" (RK4 reached a stable state within
    equilibrium_tol), "newton" (the Newton finish did), "t_max" or
    "diverged"; converged is true for the first two only.
    spectral_abscissa is the largest real part of the Jacobian spectrum at
    final (None when the run diverged).  residual is max |F(final)|,
    elapsed_time the RK4 time at which the run stopped and n_steps the
    number of RK4 steps taken to get there."""

    final: np.ndarray
    converged: bool
    residual: float
    elapsed_time: float
    n_steps: int
    diverged: bool
    stop_reason: str
    spectral_abscissa: float | None


RECORD_STRIDE = 10     # a trajectory keeps every RECORD_STRIDE-th RK4 step
RK4_RADIUS = 2.6       # the closed left half-disk of this radius lies in the
                       # RK4 stability region (the largest such radius is 2.6156)
NEWTON_STEPS = 3       # Newton steps per attempt of the finish
KRYLOV_RTOL = 1e-10    # GMRES stops below this residual relative to |b|


def stable_step(cfg: ModelConfig) -> float:
    """RK4 step RK4_RADIUS / rho for the model, where rho bounds the
    spectral radius of jacobian(Z, cfg) at every state Z.

    The slopes Dk of saturation k lie in (0, 2 dk], dk = 1 / (2 (1 -
    tanh(sk)^2)).  With every slope at that centre the Jacobian J(d) is
    symmetric, with the four closed-form eigenvalues of _centre_spectrum,
    and J(Z) is within eps of J(d) in the 2-norm.  By Bauer-Fike for normal
    matrices (Bauer & Fike, Numer. Math. 1960) every eigenvalue of J(Z) lies
    within eps of a centre eigenvalue, so rho = max |centre| + eps.  Each
    eigenvalue mu with Re mu <= 0 then has h mu in the closed left half-disk
    of radius RK4_RADIUS, inside the RK4 stability region |1 + z + z^2/2 +
    z^3/6 + z^4/24| <= 1 (Hairer & Wanner, Solving ODEs II, IV.2): no
    decaying mode is amplified, whatever state a run passes through.

    Since rho <= 1 + 2 eps, which is at most the Gershgorin row-sum bound
    1 + |lam| (2 d1 (|alpha| + (m-1)|gamma|) + 2 d2 (n-1) (|beta| + (m-1)|delta|)),
    this step is never smaller than the row-sum one."""
    centres, eps = _centre_spectrum(cfg)
    return float(RK4_RADIUS / (max(abs(mu) for mu in centres) + eps))


def _centre_spectrum(cfg: ModelConfig) -> tuple[tuple[float, ...], float]:
    """The eigenvalues -1 + lam nu of J(d), ordered (dissensus, consensus,
    deadlock, sync), and eps >= ||J(Z) - J(d)||_2 at every state Z.

    J(Z) = lam [diag(D1) K1 + (R - I) diag(D2) K2] - I, where K1 acts down
    each column with weights (alpha, gamma): a1 = alpha - gamma on zero-sum
    columns, b1 = alpha + (m-1) gamma on constant ones; K2 likewise with
    (beta, delta), giving a2 and b2; and R sums along each row, so R - I is
    -1 on zero-sum rows and n - 1 on constant ones.  K1, K2 and R are
    symmetric and commute, so J(d) is symmetric with those products as
    eigenvalues (at d = (1, 1) the nu are c_d, c_c, c_dl and c_s), and
    |Dk - dk| <= dk gives eps = |lam| (d1 ||K1|| + (n-1) d2 ||K2||)."""
    m, n = cfg.shape.m, cfg.shape.n
    alpha, beta, gamma, delta = cfg.gains.as_tuple()
    a1, b1 = alpha - gamma, alpha + (m - 1) * gamma
    a2, b2 = beta - delta, beta + (m - 1) * delta
    d1, d2 = (0.5 / (1.0 - math.tanh(s) ** 2) for s in (cfg.sigmoids.s1, cfg.sigmoids.s2))
    nus = (d1 * a1 - d2 * a2, d1 * b1 - d2 * b2,
           d1 * a1 + (n - 1) * d2 * a2, d1 * b1 + (n - 1) * d2 * b2)
    eps = abs(cfg.lam) * (d1 * max(abs(a1), abs(b1)) + (n - 1) * d2 * max(abs(a2), abs(b2)))
    return tuple(-1.0 + cfg.lam * nu for nu in nus), eps


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
    """Run RK4 from Z0 until a sampled state, or the Newton finish from it,
    is a stable equilibrium within tolerance, or t_max is reached.  The
    trajectory contains the initial state, every RECORD_STRIDE-th step, and
    the final state (a Newton final replaces the sample it started from).

    The stability gate and the Newton finish are tried at a sampled state
    with residual <= sqrt(equilibrium_tol) and at most half the residual of
    the previous try; tries re-arm once the residual climbs above
    sqrt(equilibrium_tol) again, and the last step is always tried.

    Only the shape of Z0 is validated here; a non-finite state (initial or
    encountered mid-run) is reported as divergence with the blow-up time,
    never raised, so sweeps survive unstable parameter regions.  When a
    field evaluation cannot be summed (math.fsum overflows, or meets +inf
    and -inf in one column), the run is reported diverged at the current t
    with the state the step started from.

    This is integrate_batch on a batch of one."""
    return integrate_batch([Z0], cfg, icfg)[0]


def integrate_batch(Z0s, cfg: ModelConfig,
                    icfg: IntegratorConfig) -> list[tuple[Trajectory, EquilibriumResult]]:
    """integrate for every start of Z0s (a sequence of m x n states), in
    one RK4 loop: (trajectory, result) per start, in the order of Z0s.

    The members share the step and t.  Each RK4 stage evaluates the field
    of the whole (B, m, n) stack in one call, and the update is elementwise,
    so every member's trajectory and result are bitwise those of integrate
    on its start alone.  Sampling, the stability gate, the Newton finish and
    the stop are per member, and a member that stops leaves the stack.  When
    a stage cannot be summed, the step is evaluated for each member alone:
    the members whose sums raise end diverged, the others go on."""
    Z = np.array(Z0s, dtype=float)
    m, n = cfg.shape.m, cfg.shape.n
    if Z.ndim != 3 or Z.shape[1:] != (m, n):
        raise ValueError(f"state shape {Z.shape[1:]} does not match network {m}x{n}")
    f = _compiled_field(cfg)
    h = icfg.step
    tol = icfg.equilibrium_tol
    stride = RECORD_STRIDE
    nstep = int(round(icfg.t_max / h))
    # 0-d arrays multiply an array faster than Python floats, with the same
    # IEEE products
    half_h, full_h, sixth_h = np.array(0.5 * h), np.array(h), np.array(h / 6.0)
    two = np.array(2.0)

    def stages(Z, k1):
        # Z + h/6 (k1 + 2 k2 + 2 k3 + k4) with the same IEEE operations,
        # reordered only where they commute, in place on the stages
        k2 = half_h * k1
        k2 += Z
        k2 = f(k2)
        k3 = half_h * k2
        k3 += Z
        k3 = f(k3)
        k4 = full_h * k3
        k4 += Z
        k4 = f(k4)
        k2 *= two
        k2 += k1
        k3 *= two
        k2 += k3
        k2 += k4
        k2 *= sixth_h
        k2 += Z
        return k2

    members = [_Member() for _ in Z]
    live = members          # live[i] is the member whose state is Z[i]
    t = 0.0
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            try:
                k1 = f(Z)
            except (OverflowError, ValueError):
                # raised by math.fsum for some member
                keep, k1 = _each(f, Z)
                live, Z = _diverge(live, keep, Z, t, k), Z[keep]
            # a non-finite Z gives a non-finite k1 through the -Z term; a
            # non-finite entry makes k1 . k1 non-finite
            if not math.isfinite(np.vdot(k1, k1)) and not np.isfinite(k1).all():
                keep = np.isfinite(k1).all(axis=(1, 2))
                live, Z, k1 = _diverge(live, keep, Z, t, k), Z[keep], k1[keep]
            last = k >= nstep
            if last or k % stride == 0:
                residuals = np.abs(k1).max(axis=(1, 2)).tolist()
                keep = [not member.sample(t, k, Zi, Fi, residual, last, cfg, tol)
                        for member, Zi, Fi, residual in zip(live, Z, k1, residuals)]
                if not all(keep):
                    live = [member for member, kept in zip(live, keep) if kept]
                    Z, k1 = Z[keep], k1[keep]
            if not live:
                break
            try:
                Z = stages(Z, k1)
            except (OverflowError, ValueError):
                keep, stepped = _each(stages, Z, k1)
                live, Z = _diverge(live, keep, Z, t, k), stepped
            t += h
            k += 1
    return [member.run for member in members]


@dataclass
class _Member:
    """One start of integrate_batch: its trajectory, the residual and
    spectral abscissa of its last sample, the residual of its last
    stability try, and its (trajectory, result) once it has stopped."""

    traj: Trajectory = field(default_factory=Trajectory)
    residual: float = math.inf
    abscissa: float | None = None
    last_try: float = math.inf
    run: tuple[Trajectory, EquilibriumResult] | None = None

    def sample(self, t, k, Z, FZ, residual, last, cfg, tol) -> bool:
        """Record the sample (t, Z), whose field FZ has max-norm residual,
        and try the stability gate and the Newton finish where integrate
        says; True when the member stopped here."""
        self.traj.append(t, Z.copy())
        self.residual = residual
        stop = "t_max" if last else None
        if residual > math.sqrt(tol):
            self.last_try = math.inf
        elif last or residual <= 0.5 * self.last_try:
            self.last_try = residual
            self.abscissa = _spectral_abscissa(jacobian(Z, cfg))
            if self.abscissa < 0.0:
                if residual <= tol:
                    stop = "tolerance"
                else:
                    finish = _newton_finish(Z, FZ, cfg, tol)
                    if finish is not None:
                        self.traj.states[-1], self.residual, self.abscissa = finish
                        stop = "newton"
        if stop == "t_max":
            self.abscissa = _spectral_abscissa(jacobian(Z, cfg))
        if stop is not None:
            self._end(stop, t, k)
        return stop is not None

    def diverge(self, t, k, Z):
        """End diverged at t with the state Z."""
        if not self.traj.times or self.traj.times[-1] != t:
            self.traj.append(t, Z.copy())
        self.residual, self.abscissa = math.inf, None
        self._end("diverged", t, k)

    def _end(self, stop, t, k):
        self.run = self.traj, EquilibriumResult(
            final=self.traj.final, converged=stop in ("tolerance", "newton"),
            residual=self.residual, elapsed_time=t, n_steps=k,
            diverged=stop == "diverged", stop_reason=stop, spectral_abscissa=self.abscissa)


def _each(fn, *stacks):
    """fn on each member of the stacks alone: the mask of the members for
    which no math.fsum inside raised, and their results stacked."""
    keep, out = [], []
    for args in zip(*stacks):
        try:
            out.append(fn(*(a[None] for a in args)))
        except (OverflowError, ValueError):
            keep.append(False)
        else:
            keep.append(True)
    return keep, np.concatenate(out) if out else np.empty((0,) + stacks[0].shape[1:])


def _diverge(live, keep, Z, t, k):
    """End the members of live whose keep is false as diverged at t, each
    with its state in Z; return the others."""
    for member, kept, Zi in zip(live, keep, Z):
        if not kept:
            member.diverge(t, k, Zi)
    return [member for member, kept in zip(live, keep) if kept]


def _spectral_abscissa(J: np.ndarray) -> float:
    """Largest real part of the eigenvalues of a square matrix."""
    return float(np.linalg.eigvals(J).real.max())


def _newton_finish(Z, FZ, cfg: ModelConfig, tol: float):
    """Up to NEWTON_STEPS Newton steps from Z, whose field value is FZ.

    Returns (W, residual, abscissa) for the first iterate W whose residual
    is <= tol, provided the Jacobian at W is stable; None when no iterate
    gets there, one is not finite or cannot be summed, or the one that does
    is unstable.  Each correction is solved by _gmres on the field's
    Jacobian-vector product, so W is bitwise equivariant and stays bitwise
    in every synchrony subspace that contains Z."""
    f = _compiled_field(cfg)
    slopes, jvp = _compiled_linearization(cfg)
    W, FW = Z, FZ
    try:
        for _ in range(NEWTON_STEPS):
            D = slopes(W)
            step = _gmres(lambda V: jvp(D, V), FW)
            if step is None:
                return None
            W = W - step
            FW = f(W[None])[0]
            if not np.isfinite(FW).all():
                return None
            residual = float(np.abs(FW).max())
            if residual <= tol:
                abscissa = _spectral_abscissa(jacobian(W, cfg))
                return (W, residual, abscissa) if abscissa < 0.0 else None
    except (OverflowError, ValueError):
        # math.fsum met an unsummable iterate
        return None
    return None


def _gmres(A, b: np.ndarray):
    """Solve A x = b for a linear map A on arrays shaped like b by GMRES
    (Saad & Schultz 1986): at most b.size Arnoldi steps with modified
    Gram-Schmidt, stopping once the least-squares residual is below
    KRYLOV_RTOL |b|; the small least-squares problem on the Hessenberg
    matrix is solved by Givens rotations.  None when that matrix is
    singular.

    Every inner product and norm is a math.fsum of elementwise products,
    so each scalar is independent of the order of the elements, and each
    Krylov vector is an elementwise combination of A's outputs: permuting b
    (with A equivariant) permutes x bitwise, and x stays bitwise in any
    synchrony subspace that holds b and is invariant under A."""
    def dot(u, v):
        return math.fsum((u * v).ravel().tolist())

    beta = math.sqrt(dot(b, b))
    basis = [b / beta]
    rhs = [beta]          # Q^T beta e1, rotated along with the columns
    columns = []          # upper-triangular R, column by column
    rotations = []
    for j in range(b.size):
        w = A(basis[j])
        col = []
        for v in basis:
            coef = dot(w, v)
            w = w - coef * v
            col.append(coef)
        below = math.sqrt(dot(w, w))
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[j], below)
        if rho == 0.0:
            return None
        c, s = col[j] / rho, below / rho
        col[j] = rho
        rotations.append((c, s))
        rhs.append(-s * rhs[j])
        rhs[j] *= c
        columns.append(col)
        if abs(rhs[j + 1]) <= KRYLOV_RTOL * beta:
            break
        basis.append(w / below)
    y = [0.0] * len(columns)
    for i in reversed(range(len(columns))):
        y[i] = (rhs[i] - sum(columns[l][i] * y[l] for l in range(i + 1, len(columns)))) \
            / columns[i][i]
    x = y[0] * basis[0]
    for coef, v in zip(y[1:], basis[1:]):
        x = x + coef * v
    return x


def numerical_jacobian(Z, cfg: ModelConfig, h_fd: float) -> np.ndarray:
    """Central-difference Jacobian of the model field at Z (mn x mn,
    row-major cell order)."""
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    Z = as_state(Z, cfg.shape)
    f = _compiled_field(cfg)
    m, n = Z.shape
    J = np.empty((m * n, m * n))
    for k in range(m * n):
        E = np.zeros((m, n))
        E[divmod(k, n)] = h_fd
        col = (f((Z + E)[None]) - f((Z - E)[None]))[0] / (2.0 * h_fd)
        if not np.isfinite(col).all():
            raise ValueError("non-finite entries in finite-difference column")
        J[:, k] = col.ravel()
    return J


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
