"""Deterministic, seeded integration of the value dynamics.

Second-order Runge-Kutta-Chebyshev (RKC; Sommeijer, Shampine & Verwer,
J. Comput. Appl. Math. 1997) with damping RKC_DAMPING = 2/13 carries a run
through the escape from its start, which decides the basin, and through
the slow approach that follows; a gated Newton finish replaces the last of
it.  Near a threshold the slow rates are of order epsilon while the fast
ones stay near -2, so a method held to a fixed stable step would spend most
of a run resolving modes that have long decayed.  RKC is explicit: an
s-stage step is stable for every h mu with mu in [-beta(s), 0], beta(s) ~
0.65 s^2, and uses only field calls and elementwise updates.  A step of
size h takes s = 1 + floor(sqrt(1 + 1.54 h rho)) stages, where rho =
spectral_bound(cfg) bounds the spectral radius of the Jacobian at every
state: the Jacobian at any state is within a closed-form distance of the
symmetric Jacobian at the centre of the slope ranges, whose four isotypic
eigenvalues are closed-form too, so Bauer-Fike bounds its spectrum.

Steps are error-controlled.  Verwer's estimate 0.8 (y_n - y_n+1) + 0.4 h
(F_n + F_n+1), with the field at the new state reused as the next step's
first (FSAL), is measured in the max-norm against ERROR_ATOL + ERROR_RTOL
max(|y_n|, |y_n+1|); a step is accepted when that is <= 1 and otherwise
leaves the run where it was.  Either way the next h is h min(10, max(0.1,
0.8 err^(-1/3))), cut to land on t_max; the first trial h is
IntegratorConfig.step.  The Newton finish, not the tolerance, sets the
accuracy of a final.

Equilibrium is detected from the vector-field residual at every accepted
state rather than from state differences; near a bifurcation the
transients are slow (growth rates of order epsilon) and state-difference
tests give false positives there.  A residual within tolerance counts as
convergence only where the closed-form Jacobian of the field is stable
(spectral abscissa < 0), so a run that passes close to an unstable
equilibrium keeps going.

Newton finish.  Once a sampled residual is at most sqrt(equilibrium_tol)
and the Jacobian there is stable, up to NEWTON_STEPS Newton steps start
from the sampled state.  An iterate with residual <= equilibrium_tol and a
stable Jacobian ends the run and replaces that sample; otherwise RKC goes
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
the vector field and its Jacobian-vector product are exactly equivariant,
every stage update is elementwise and the error norm is a maximum, which
does not depend on the order of the cells, integrating a permuted initial
state yields the permuted trajectory and final bitwise, and a start inside
a synchrony subspace stays in it bitwise, through the Newton finish too.

Batches.  integrate_batch runs the starts of one config together: each
member has its own t, h and stage count, held as (B, 1, 1) arrays, each
stage evaluates the field of the members still in their stages in one
call, and a member that stops leaves the stack.  The stages run to the largest stage count of the
batch; a member past its own keeps its stage value, exactly.  The field of
a stack is the field of each of its states (the sums are per state, the
rest is elementwise), so a start's trajectory and result are the same,
bitwise, whatever batch it runs in and in whatever order; integrate is the
batch of one.

Starts.  random_near_origin draws a seeded start from numpy's stream,
np.random.default_rng(seed).uniform (SeedSequence into PCG64), bit for
bit, computed in pure Python: the start of a seed is what it was, without
the import time and memory of numpy.random.

Divergence (a start whose field is not finite or cannot be summed, or a
step whose stages overflow) is reported in the result, not raised, so
parameter sweeps survive unstable regions; in a batch it ends only the
starts it occurs in.  The field is -Z plus a bounded term, so an exact
run decays into a bounded set; only a start near the float limit
diverges, and an oversized trial step is rejected, not blown up.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .model import ModelConfig, NetworkShape, _compiled_model, jacobian

__all__ = [
    "IntegratorConfig",
    "spectral_bound",
    "Trajectory",
    "EquilibriumResult",
    "random_near_origin",
    "integrate",
    "integrate_batch",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """First trial step and horizon; the residual threshold
    equilibrium_tol is a class constant, the same for every run, as are
    the step tolerances ERROR_RTOL and ERROR_ATOL.  Scenario runs take
    step = 1 / spectral_bound(cfg) and a horizon sized from their growth
    rate (Scenario.integrator_config); the defaults serve direct calls.
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

    stop_reason is "tolerance" (an accepted step reached a stable state
    within equilibrium_tol), "newton" (the Newton finish did), "t_max" or
    "diverged"; converged is true for the first two only.
    spectral_abscissa is the largest real part of the Jacobian spectrum at
    final (None when the run diverged).  residual is max |F(final)|,
    elapsed_time the time of the sample at which the run stopped, n_steps
    the number of accepted steps taken to get there and n_evals the field
    evaluations they cost, rejected steps included and the Newton finish
    excluded."""

    final: np.ndarray
    converged: bool
    residual: float
    elapsed_time: float
    n_steps: int
    n_evals: int
    diverged: bool
    stop_reason: str
    spectral_abscissa: float | None


RKC_DAMPING = 2 / 13   # damping epsilon of the Chebyshev stages
ERROR_RTOL = 1e-4      # a step's error estimate is measured against
ERROR_ATOL = 1e-4      # ERROR_ATOL + ERROR_RTOL max(|y_n|, |y_n+1|)
NEWTON_STEPS = 3       # Newton steps per attempt of the finish
KRYLOV_RTOL = 1e-10    # GMRES stops below this residual relative to |b|


def spectral_bound(cfg: ModelConfig) -> float:
    """rho, a bound on the spectral radius of jacobian(Z, cfg) at every
    state Z; an RKC step of size h takes s = 1 + floor(sqrt(1 + 1.54 h
    rho)) stages, so that h rho lies in its real stability interval.

    The slopes Dk of saturation k lie in (0, 2 dk], dk = 1 / (2 (1 -
    tanh(sk)^2)).  With every slope at that centre the Jacobian J(d) is
    symmetric, with the four closed-form eigenvalues of _centre_spectrum,
    and J(Z) is within eps of J(d) in the 2-norm.  By Bauer-Fike for normal
    matrices (Bauer & Fike, Numer. Math. 1960) every eigenvalue of J(Z) lies
    within eps of a centre eigenvalue, so rho = max |centre| + eps.

    Since rho <= 1 + 2 eps, this bound is never above the Gershgorin
    row-sum bound 1 + |lam| (2 d1 (|alpha| + (m-1)|gamma|) + 2 d2 (n-1)
    (|beta| + (m-1)|delta|))."""
    centres, eps = _centre_spectrum(cfg)
    return float(max(abs(mu) for mu in centres) + eps)


@lru_cache(maxsize=64)
def _rkc_coefficients(s: int) -> np.ndarray:
    """The (s + 1, 5) coefficients of an s-stage RKC step (s >= 2):
    row j >= 2 holds (1 - mu_j - nu_j, mu_j, nu_j, mu~_j, gamma~_j) of

        Y_j = (1 - mu_j - nu_j) Y_0 + mu_j Y_j-1 + nu_j Y_j-2
              + mu~_j h F(Y_j-1) + gamma~_j h F(Y_0),

    row 1 holds mu~_1 of Y_1 = Y_0 + mu~_1 h F(Y_0) in its fourth column,
    and row 0 is zero.  With w0 = 1 + RKC_DAMPING / s^2, the Chebyshev
    polynomials T_j at w0 and their derivatives give w1 = T_s'/T_s'',
    b_j = T_j''/T_j'^2 (b_0 = b_1 = b_2), mu_j = 2 w0 b_j / b_j-1,
    nu_j = -b_j / b_j-2, mu~_1 = b_1 w1, mu~_j = 2 w1 b_j / b_j-1 and
    gamma~_j = -(1 - b_j-1 T_j-1) mu~_j (Sommeijer, Shampine & Verwer
    1997).  The step's stability polynomial is 1 - b_s T_s(w0) + b_s
    T_s(w0 + w1 z), bounded by 1 on [-(1 + w0) / w1, 0]."""
    w0 = 1.0 + RKC_DAMPING / (s * s)
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * w0 * dT[j - 1] + 2.0 * T[j - 1] - dT[j - 2])
        d2T.append(2.0 * w0 * d2T[j - 1] + 4.0 * dT[j - 1] - d2T[j - 2])
    w1 = dT[s] / d2T[s]
    b = [d2T[j] / dT[j] ** 2 if j >= 2 else d2T[2] / dT[2] ** 2 for j in range(s + 1)]
    rows = np.zeros((s + 1, 5))
    rows[1, 3] = b[1] * w1
    for j in range(2, s + 1):
        mu, nu = 2.0 * w0 * b[j] / b[j - 1], -b[j] / b[j - 2]
        mut = 2.0 * w1 * b[j] / b[j - 1]
        rows[j] = (1.0 - mu - nu, mu, nu, mut, -(1.0 - b[j - 1] * T[j - 1]) * mut)
    return rows


def _stage_count(h: float, rho: float) -> int:
    """Stages of an RKC step of size h under the spectral bound rho."""
    return 1 + int(math.sqrt(1.0 + 1.54 * h * rho))


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

    The entries are np.random.default_rng(seed).uniform(-radius, radius,
    (m, n)) bitwise: numpy's SeedSequence and PCG64 stream, filled
    row-major, computed in pure Python by _pcg64_doubles, so one (shape,
    radius, seed) triple always gives the same matrix and numpy.random is
    never imported.  The seed is a non-negative integer; the draw spans
    2 * radius, which must be finite.
    """
    if not (radius > 0 and math.isfinite(2 * radius)):
        raise ValueError("radius must be positive with 2 * radius finite")
    span = 2 * radius
    values = [-radius + span * u for u in _pcg64_doubles(seed, shape.m * shape.n)]
    return np.array(values).reshape(shape.m, shape.n)


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_state(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64): the seed's
    little-endian 32-bit words hashed into a pool of 4 words, each word of
    the pool hashed into the others, then 8 output words paired into 4
    64-bit ones (O'Neill's seed_seq_fe, all arithmetic mod 2**32)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    const = 0x43b0d7e5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931e8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8b51f9dd, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58f38ded & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg64_doubles(seed: int, count: int) -> list[float]:
    """The first count doubles of np.random.default_rng(seed).random():
    PCG64 (O'Neill 2014) seeded as numpy seeds it from
    _seed_sequence_state, each double the top 53 bits of one XSL-RR
    128/64 output."""
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_state(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
    doubles = []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _MASK128
        word, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        doubles.append((word >> 11) * 2.0**-53)
    return doubles


def integrate(Z0, cfg: ModelConfig,
              icfg: IntegratorConfig) -> tuple[Trajectory, EquilibriumResult]:
    """Run RKC from Z0 until an accepted state, or the Newton finish from
    it, is a stable equilibrium within tolerance, or t_max is reached.  The
    trajectory contains the initial state and every accepted step (a
    Newton final replaces the sample it started from).

    The stability gate and the Newton finish are tried at an accepted state
    with residual <= sqrt(equilibrium_tol) and under half the residual of
    the previous try; tries re-arm once the residual climbs above
    sqrt(equilibrium_tol) again, and the state at t_max is always tried.

    Only the shape of Z0 is validated here.  A start whose field is not
    finite or cannot be summed (math.fsum overflows, or meets +inf and -inf
    in one column), and a step whose stages or new field are not finite or
    cannot be summed, end the run diverged at the current t with the last
    accepted state, never raised, so sweeps survive.  A step whose error
    estimate alone overflows is rejected.

    This is integrate_batch on a batch of one."""
    return integrate_batch([Z0], cfg, icfg)[0]


def integrate_batch(Z0s, cfg: ModelConfig,
                    icfg: IntegratorConfig) -> list[tuple[Trajectory, EquilibriumResult]]:
    """integrate for every start of Z0s (a sequence of m x n states), in
    one RKC loop: (trajectory, result) per start, in the order of Z0s.

    Each member has its own t, h and stage count.  Each stage evaluates the
    field of the members still in their stages in one call, the updates are
    elementwise, and a member past its own stage count keeps its stage
    value through np.where, so every member's trajectory and result are
    bitwise those of integrate on its start alone.  Acceptance, sampling,
    the stability gate, the Newton finish and the stop are per member, and
    a member that stops leaves the stack."""
    Z = np.array(Z0s, dtype=float)
    m, n = cfg.shape.m, cfg.shape.n
    if Z.ndim != 3 or Z.shape[1:] != (m, n):
        raise ValueError(f"state shape {Z.shape[1:]} does not match network {m}x{n}")
    f = _compiled_model(cfg)[0]
    rho = spectral_bound(cfg)
    tol = icfg.equilibrium_tol
    t_max = icfg.t_max
    members = [_Member() for _ in Z]
    live = members          # live[i] is the member whose state is Z[i]
    t = np.zeros((len(Z), 1, 1))
    h = np.full((len(Z), 1, 1), icfg.step)
    with np.errstate(over="ignore", invalid="ignore"):
        F = _field(f, Z)
        moved = _finite(F)
        for member, finite, Zi in zip(live, moved, Z):
            member.n_evals = 1
            if not finite:
                member.diverge(0.0, Zi)
        while True:
            # sample the members that have just reached a new state
            residuals = np.abs(F).max(axis=(1, 2)).tolist()
            keep = [member.run is None and not (
                        new and member.sample(ti, Zi, Fi, residual, ti >= t_max, cfg, tol))
                    for member, new, ti, Zi, Fi, residual
                    in zip(live, moved, t.ravel().tolist(), Z, F, residuals)]
            if not all(keep):
                live = [member for member, kept in zip(live, keep) if kept]
                Z, F, t, h = Z[keep], F[keep], t[keep], h[keep]
            if not live:
                break
            s = [_stage_count(hi, rho) for hi in h.ravel().tolist()]
            Y, FY = _rkc_step(f, Z, F, h, s)
            errs = _error_norms(Z, Y, F, FY, h)
            moved = [err <= 1.0 for err in errs]
            for member, si, moves, finite, ti, Zi in zip(live, s, moved, _finite(FY),
                                                        t.ravel().tolist(), Z):
                member.n_evals += si
                member.n_steps += moves
                if not finite:
                    member.diverge(ti, Zi)
            acc = np.array(moved)[:, None, None]
            Z, F = np.where(acc, Y, Z), np.where(acc, FY, F)
            t = np.where(acc, np.where(h == t_max - t, t_max, t + h), t)
            h *= np.array([_step_factor(err) for err in errs])[:, None, None]
            np.minimum(h, t_max - t, out=h)
    return [member.run for member in members]


def _finite(F) -> list[bool]:
    """Per member of the stack F, whether all its entries are finite."""
    # a non-finite entry makes F . F non-finite
    if math.isfinite(np.vdot(F, F)) or np.isfinite(F).all():
        return [True] * len(F)
    return np.isfinite(F).all(axis=(1, 2)).tolist()


def _error_norms(Z, Y, F, FY, h) -> list[float]:
    """Per member, the max-norm of Verwer's estimate 0.8 (Z - Y) + 0.4 h
    (F + FY) of a step from Z (field F) to Y (field FY), each entry over
    ERROR_ATOL + ERROR_RTOL max(|Z|, |Y|); inf or NaN when the estimate
    overflows, which rejects the step."""
    est = Z - Y
    est *= 0.8
    G = F + FY
    G *= 0.4 * h
    est += G
    W = np.maximum(np.abs(Z), np.abs(Y))
    W *= ERROR_RTOL
    W += ERROR_ATOL
    est /= W
    return np.abs(est).max(axis=(1, 2)).tolist()


def _step_factor(err: float) -> float:
    """Factor of the next step after a step with error norm err."""
    if not math.isfinite(err):
        return 0.1
    return min(10.0, max(0.1, 0.8 * err ** (-1 / 3))) if err > 0.0 else 10.0


def _rkc_step(f, Z, F, h, s):
    """One RKC step of each member of the stack Z, whose fields are F, with
    its step in h (B, 1, 1) and its stage count in s: the stack of the
    last stages Y_s and the stack of their fields.  A member whose sums
    raise in a stage gets NaN from there on."""
    S = max(s)
    coef = np.zeros((S + 1, 5, len(Z), 1, 1))
    for i, si in enumerate(s):
        coef[:si + 1, :, i, 0, 0] = _rkc_coefficients(si)
    hcoef = coef[:, 3:] * h    # mu~_j h and gamma~_j h
    prev2, prev = Z, Z + hcoef[1, 0] * F
    for j in range(2, S + 1):
        c0, mu, nu = coef[j, :3]
        active = [si >= j for si in s]
        everyone = all(active)
        if everyone:
            FY = _field(f, prev)
        else:
            FY = np.zeros_like(prev)
            FY[active] = _field(f, prev[active])
        Y = c0 * Z
        Y += mu * prev
        Y += nu * prev2
        Y += hcoef[j, 0] * FY
        Y += hcoef[j, 1] * F
        if not everyone:
            Y = np.where(np.array(active)[:, None, None], Y, prev)
        prev2, prev = prev, Y
    return prev, _field(f, prev)


def _field(f, Z):
    """f on the stack Z, with NaN for each member whose own sums cannot be
    taken (math.fsum raises)."""
    try:
        return f(Z)
    except (OverflowError, ValueError):
        if len(Z) == 1:
            return np.full_like(Z, np.nan)
        return np.concatenate([_field(f, Zi[None]) for Zi in Z])


@dataclass
class _Member:
    """One start of integrate_batch: its trajectory, its counts of accepted
    steps and field evaluations, the residual and spectral abscissa of its
    last sample, the residual of its last stability try, and its
    (trajectory, result) once it has stopped."""

    traj: Trajectory = field(default_factory=Trajectory)
    n_steps: int = 0
    n_evals: int = 0
    residual: float = math.inf
    abscissa: float | None = None
    last_try: float = math.inf
    run: tuple[Trajectory, EquilibriumResult] | None = None

    def sample(self, t, Z, FZ, residual, last, cfg, tol) -> bool:
        """Record the sample (t, Z), whose field FZ has max-norm residual,
        and try the stability gate and the Newton finish where integrate
        says; True when the member stopped here."""
        self.traj.append(t, Z.copy())
        self.residual = residual
        stop = "t_max" if last else None
        if residual > math.sqrt(tol):
            self.last_try = math.inf
        elif last or residual < 0.5 * self.last_try:
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
        if stop == "t_max" and residual > math.sqrt(tol):
            # under sqrt(tol) the gate has just computed it at Z
            self.abscissa = _spectral_abscissa(jacobian(Z, cfg))
        if stop is not None:
            self._end(stop, t)
        return stop is not None

    def diverge(self, t, Z):
        """End diverged at t with the state Z."""
        if not self.traj.times or self.traj.times[-1] != t:
            self.traj.append(t, Z.copy())
        self.residual, self.abscissa = math.inf, None
        self._end("diverged", t)

    def _end(self, stop, t):
        self.run = self.traj, EquilibriumResult(
            final=self.traj.final, converged=stop in ("tolerance", "newton"),
            residual=self.residual, elapsed_time=t, n_steps=self.n_steps,
            n_evals=self.n_evals, diverged=stop == "diverged", stop_reason=stop,
            spectral_abscissa=self.abscissa)


def _spectral_abscissa(J: np.ndarray) -> float:
    """Largest real part of the eigenvalues of a square matrix."""
    return float(np.linalg.eigvals(J).real.max())


def _newton_finish(Z, FZ, cfg: ModelConfig, tol: float):
    """Up to NEWTON_STEPS Newton steps from Z, whose field value is FZ.

    Returns (W, residual, abscissa) for the first iterate W whose residual
    is <= tol, provided the Jacobian at W is stable; None when no iterate
    gets there, one is not finite or cannot be summed, or the one that does
    is unstable.  The iterates are stacks of one, as the compiled model
    takes them, and each correction is solved by _gmres on its
    Jacobian-vector product, so W is bitwise equivariant and stays bitwise
    in every synchrony subspace that contains Z."""
    f, slopes, jvp = _compiled_model(cfg)
    W, FW = Z[None], FZ[None]
    try:
        for _ in range(NEWTON_STEPS):
            D = slopes(W)
            step = _gmres(lambda V: jvp(D, V), FW)
            if step is None:
                return None
            W = W - step
            FW = f(W)
            if not np.isfinite(FW).all():
                return None
            residual = float(np.abs(FW).max())
            if residual <= tol:
                abscissa = _spectral_abscissa(jacobian(W[0], cfg))
                return (W[0], residual, abscissa) if abscissa < 0.0 else None
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
