"""Core model of value formation on an m x n agent-option influence network.

State is an m x n real array Z, entry z_ij being the value agent i assigns
to option j.  Every node receives three kinds of input: the other entries of
its own row, the other entries of its own column, and all remaining entries.
The vector field treats inputs of the same kind identically, so permuting
agents and/or options permutes the field output the same way (the map is
equivariant under S_m x S_n).

The linearization at the origin block-diagonalizes over four invariant
subspaces (synchronous / consensus / deadlock / dissensus), giving four
closed-form eigenvalues.  This module provides the field itself, its
closed-form Jacobian at any state, plus all of that linear algebra: the 4x4
conversion between interaction gains and the per-subspace growth
coefficients, analytic eigenvalues with multiplicities, bifurcation
thresholds, and the orthogonal projections onto the four subspaces.

Exactness conventions: the multiset reductions inside ``vector_field`` use
``math.fsum``, which is correctly rounded and therefore independent of
summand order.  Everything else is elementwise: both saturations of a whole
stack of states are evaluated in one numpy pass whose elements see exactly
the IEEE operations of a per-saturation evaluation of one state, which
relies on ``np.tanh`` returning the same bits for a value wherever it sits
in an array (a test pins this).  As a consequence equivariance and the
invariance of synchrony subspaces hold *bitwise*, not merely to rounding
tolerance, and a state's field does not depend on the stack it is in.  The
Jacobian-vector product that the integrator's Newton finish uses follows the
same conventions, so it is exact in the same sense.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral

import numpy as np

__all__ = [
    "NetworkShape",
    "GainParams",
    "CriticalCoefficients",
    "SigmoidParams",
    "ModelConfig",
    "IrrepDecomposition",
    "ThresholdInfo",
    "vector_field",
    "jacobian",
    "interaction_matrix",
    "interaction_matrix_det",
    "coefficients_from_gains",
    "gains_from_coefficients",
    "analytic_eigenvalues",
    "bifurcation_threshold",
    "irrep_project",
    "as_state",
]

@dataclass(frozen=True)
class NetworkShape:
    """Agent count m and option count n, both at least 2."""

    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):
            size = getattr(self, name)
            if not isinstance(size, Integral) or isinstance(size, bool):
                raise ValueError(f"shape {name} must be an integer, got {size!r}")
        if self.m < 2 or self.n < 2:
            raise ValueError(f"need m, n >= 2, got {self.m}x{self.n}")

    @property
    def cells(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class GainParams:
    """Interaction gains: self (alpha), row arrows (beta), column arrows
    (gamma), diagonal arrows (delta)."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"gain {name} must be finite")

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma, self.delta)


@dataclass(frozen=True)
class CriticalCoefficients:
    """Linear growth coefficients on the four invariant subspaces."""

    c_d: float
    c_c: float
    c_dl: float
    c_s: float

    def __post_init__(self):
        for name in ("c_d", "c_c", "c_dl", "c_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")

    def as_tuple(self):
        return (self.c_d, self.c_c, self.c_dl, self.c_s)

    def get(self, which: str) -> float:
        return {"dissensus": self.c_d, "consensus": self.c_c,
                "deadlock": self.c_dl, "sync": self.c_s}[which]


@dataclass(frozen=True)
class SigmoidParams:
    """Offsets of the two saturations S(x) = (tanh(x - s) + tanh(s)) /
    (1 - tanh(s)^2), normalized so S(0) = 0 and S'(0) = 1; zero offsets are
    rejected because they kill the quadratic terms the bifurcation analysis
    relies on."""

    s1: float
    s2: float

    def __post_init__(self):
        if self.s1 == 0.0 or self.s2 == 0.0:
            raise ValueError("sigmoid offsets must be nonzero")


@dataclass(frozen=True)
class ModelConfig:
    shape: NetworkShape
    gains: GainParams
    sigmoids: SigmoidParams
    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")


@dataclass(frozen=True)
class ThresholdInfo:
    """1/c for one subspace coefficient; `first` marks the bifurcation that
    is reached first as lambda grows, `reachable` that the threshold is
    positive at all."""

    which: str
    lam: float
    first: bool
    reachable: bool


def as_state(values, shape: NetworkShape) -> np.ndarray:
    """Validate and return a float state array for the given shape."""
    Z = np.asarray(values, dtype=float)
    if Z.shape != (shape.m, shape.n):
        raise ValueError(f"state shape {Z.shape} does not match network {shape.m}x{shape.n}")
    if not np.isfinite(Z).all():
        raise ValueError("state contains non-finite entries")
    return Z


def _stacked_constants(cfg: ModelConfig, ndim: int):
    """Per-saturation constants as (2, 1, ..., 1) arrays of ndim axes, S1
    first: the gains (alpha, beta) and (gamma, delta), the offsets (s1, s2),
    their tanh values and the denominators 1 - tanh(s)^2; and lambda as a
    0-d array."""
    s1, s2 = cfg.sigmoids.s1, cfg.sigmoids.s2
    t1, t2 = math.tanh(s1), math.tanh(s2)

    def stacked(x, y):
        return np.array([x, y]).reshape((2,) + (1,) * (ndim - 1))

    return (stacked(cfg.gains.alpha, cfg.gains.beta),
            stacked(cfg.gains.gamma, cfg.gains.delta),
            stacked(s1, s2), stacked(t1, t2),
            stacked(1.0 - t1 * t1, 1.0 - t2 * t2), np.array(cfg.lam))


@lru_cache(maxsize=64)
def _compiled_field(cfg: ModelConfig):
    """Closure evaluating the vector field for a fixed config on a (B, m, n)
    stack of B states, returning the (B, m, n) stack of their fields.

    Both saturations of every state run in one pass: the gains (alpha,
    beta) and (gamma, delta), the offsets (s1, s2), their tanh values and
    the two denominators are (2, 1, 1, 1) arrays, so X[0] is S1 and X[1] is
    S2 of the whole stack, each element computed by the same IEEE
    operations as one saturation of one state at a time.  The result equals
    the per-state, per-saturation one bitwise because np.tanh gives each
    value the same bits at any offset and array length (pinned by a test).
    Column sums and the per-row sums of S2 are accumulated with math.fsum,
    over the B*n columns and B*m rows of the stack, so each state's result
    is a function of its own input *multisets*: this is what makes
    equivariance and synchrony invariance exact, and what keeps a state's
    field independent of the other states of the stack.  The closure holds
    no scratch buffers and is re-entrant.
    """
    m, n = cfg.shape.m, cfg.shape.n
    A, G, S, T0, DEN, lam = _stacked_constants(cfg, 4)
    fsum = math.fsum

    def field(Z: np.ndarray) -> np.ndarray:
        B = len(Z)
        C = np.fromiter(map(fsum, Z.transpose(0, 2, 1).reshape(B * n, m).tolist()),
                        float, B * n).reshape(B, 1, n)
        # (tanh(A Z + G (C - Z) - S) + T0) / DEN, computed in place
        X = A * Z
        X += G * (C - Z)
        X -= S
        np.tanh(X, out=X)
        X += T0
        X /= DEN
        S2 = X[1]
        T = np.fromiter(map(fsum, S2.reshape(B * m, n).tolist()),
                        float, B * m).reshape(B, m, 1)
        # lam (X[0] + T - S2) - Z
        F = X[0] + T
        F -= S2
        F *= lam
        F -= Z
        return F

    return field


@lru_cache(maxsize=64)
def _compiled_linearization(cfg: ModelConfig):
    """Closures (slopes, jvp) for the linearization of the field.

    slopes(Z) is the (2, m, n) array of saturation slopes at the state Z,
    (1 - tanh(u)^2) / (1 - tanh(s)^2) at each stacked argument u of the
    field.  jvp(D, V) is J(Z) V for the slopes D of Z: the field's stacked
    pass with each tanh replaced by multiplication with its slope, column
    sums of V and row sums of the S2 part again by math.fsum.  So the
    product is bitwise equivariant under a joint permutation of Z and V,
    and lies bitwise in a synchrony subspace that contains both.
    """
    m, n = cfg.shape.m, cfg.shape.n
    A, G, S, _, DEN, lam = _stacked_constants(cfg, 3)
    fsum = math.fsum

    def mix(Z):
        C = np.fromiter(map(fsum, Z.T.tolist()), float, n)
        return A * Z + G * (C - Z)

    def slopes(Z: np.ndarray) -> np.ndarray:
        th = np.tanh(mix(Z) - S)
        return (1.0 - th * th) / DEN

    def jvp(D: np.ndarray, V: np.ndarray) -> np.ndarray:
        Y = D * mix(V)
        Y2 = Y[1]
        T = np.fromiter(map(fsum, Y2.tolist()), float, m)[:, None]
        return lam * (Y[0] + T - Y2) - V

    return slopes, jvp


def vector_field(Z, cfg: ModelConfig) -> np.ndarray:
    """Time derivative of the value state.

    dz_ij/dt = -z_ij + lam * ( S1(alpha z_ij + gamma * sum_{k!=i} z_kj)
                               + sum_{l!=j} S2(beta z_il + delta * sum_{k!=i} z_kl) )
    """
    Z = as_state(Z, cfg.shape)
    return _compiled_field(cfg)(Z[None])[0]


def jacobian(Z, cfg: ModelConfig) -> np.ndarray:
    """Closed-form Jacobian of the field at Z (mn x mn, row-major cell
    order), from the slopes D1, D2 of the two saturations:

    dF_ij/dz_kl = lam * ( D1_ij [j=l] (gamma + (alpha - gamma) [i=k])
                          + (D2_il - D2_ij [j=l]) (delta + (beta - delta) [i=k]) )
                  - [i=k][j=l]
    """
    Z = as_state(Z, cfg.shape)
    m, n = cfg.shape.m, cfg.shape.n
    a, b, g, d = cfg.gains.as_tuple()
    D1, D2 = _compiled_linearization(cfg)[0](Z)
    same_row = np.eye(m)[:, None, :, None]   # [i=k], axes (i, j, k, l)
    same_col = np.eye(n)[None, :, None, :]   # [j=l]
    w1 = g + (a - g) * same_row
    w2 = d + (b - d) * same_row
    J = cfg.lam * (D1[:, :, None, None] * same_col * w1
                   + (D2[:, None, None, :] - D2[:, :, None, None] * same_col) * w2) \
        - same_row * same_col
    return J.reshape(m * n, m * n)


def interaction_matrix(shape: NetworkShape) -> list[list[int]]:
    """Integer matrix L mapping (alpha, beta, gamma, delta) to
    (c_d, c_c, c_dl, c_s)."""
    m, n = shape.m, shape.n
    return [
        [1, -1, -1, 1],
        [1, -1, m - 1, 1 - m],
        [1, n - 1, -1, 1 - n],
        [1, n - 1, m - 1, (m - 1) * (n - 1)],
    ]


def interaction_matrix_det(shape: NetworkShape) -> Fraction:
    """Determinant of L, computed exactly (equals -m^2 n^2) as the Leibniz
    sum over the 24 permutations of its integer entries."""
    L = interaction_matrix(shape)
    det = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        det += (-1) ** inversions * math.prod(L[i][perm[i]] for i in range(4))
    return Fraction(det)


def coefficients_from_gains(g: GainParams, shape: NetworkShape) -> CriticalCoefficients:
    """Growth coefficients of the four invariant subspaces, c = L @ gains."""
    m, n = shape.m, shape.n
    a, b, gm, d = g.as_tuple()
    return CriticalCoefficients(
        c_d=a - b - gm + d,
        c_c=a - b + (m - 1) * (gm - d),
        c_dl=a - gm + (n - 1) * (b - d),
        c_s=a + (n - 1) * b + (m - 1) * gm + (m - 1) * (n - 1) * d,
    )


def gains_from_coefficients(c: CriticalCoefficients, shape: NetworkShape) -> GainParams:
    """Unique gains realizing the given coefficients (L is invertible for all
    m, n >= 2, det L = -m^2 n^2)."""
    L = np.array(interaction_matrix(shape), dtype=float)
    sol = np.linalg.solve(L, np.array(c.as_tuple()))
    return GainParams(*sol)


def analytic_eigenvalues(c: CriticalCoefficients, lam: float,
                         shape: NetworkShape) -> list[tuple[float, int]]:
    """Eigenvalues of the linearization at the origin with multiplicities,
    ordered (dissensus, consensus, deadlock, sync)."""
    m, n = shape.m, shape.n
    return [
        (-1.0 + lam * c.c_d, (m - 1) * (n - 1)),
        (-1.0 + lam * c.c_c, n - 1),
        (-1.0 + lam * c.c_dl, m - 1),
        (-1.0 + lam * c.c_s, 1),
    ]


def bifurcation_threshold(c: CriticalCoefficients, which: str) -> ThresholdInfo:
    """Critical lambda = 1/c for one subspace.

    `first` is set when that coefficient is the strict maximum among the
    positive ones, i.e. its eigenvalue crosses zero before any other as
    lambda increases from 0.  A nonpositive coefficient has no positive
    threshold; zero has none at all and is rejected.
    """
    val = c.get(which)
    if val == 0.0:
        raise ValueError(f"coefficient for {which!r} is zero: no finite threshold")
    positives = [x for x in c.as_tuple() if x > 0.0]
    first = val > 0.0 and all(val > x for x in positives if x != val) \
        and positives.count(val) == 1
    return ThresholdInfo(which=which, lam=1.0 / val, first=first, reachable=val > 0.0)


@dataclass(frozen=True)
class IrrepDecomposition:
    """Orthogonal components of a state: constant part, identical zero-sum
    rows, identical zero-sum columns, and the doubly zero-sum remainder."""

    sync: np.ndarray
    consensus: np.ndarray
    deadlock: np.ndarray
    dissensus: np.ndarray


def irrep_project(Z) -> IrrepDecomposition:
    """Split Z into its four invariant-subspace components.

    sync: grand mean everywhere;  consensus: column means minus grand mean,
    copied down rows;  deadlock: row means minus grand mean, copied across
    columns;  dissensus: what is left (all row and column sums zero).
    """
    Z = np.asarray(Z, dtype=float)
    m, n = Z.shape
    grand = Z.mean()
    colmean = Z.mean(axis=0, keepdims=True)
    rowmean = Z.mean(axis=1, keepdims=True)
    sync = np.full_like(Z, grand)
    consensus = np.broadcast_to(colmean - grand, Z.shape).copy()
    deadlock = np.broadcast_to(rowmean - grand, Z.shape).copy()
    dissensus = Z - sync - consensus - deadlock
    return IrrepDecomposition(sync=sync, consensus=consensus,
                              deadlock=deadlock, dissensus=dissensus)
