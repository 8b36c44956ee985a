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
Jacobian at any state, plus all of that linear algebra: the 4x4 conversion
between interaction gains and the per-subspace growth coefficients,
analytic eigenvalues with multiplicities, bifurcation thresholds, and the
orthogonal projections onto the four subspaces.

Each linear map has one encoding.  The integer interaction matrix L gives
the growth coefficients and, through them, every closed-form eigenvalue.
One compiled model per config gives the field, its saturation slopes and
its Jacobian-vector product (the field with each saturation replaced by
its slope) on stacks of states; the dense Jacobian at a state is that
product applied to the stack of unit states.

Exactness conventions: every line sum (a column or a row of a state) is
_line_sums, which sorts the line and adds it in a fixed order, so the sum
is a function of the line's multiset, whatever the order or memory layout,
and never raises.
Everything else is elementwise: both saturations of a whole stack of
states are evaluated in one numpy pass whose elements see exactly the IEEE
operations of a per-saturation evaluation of one state, which relies on
``np.tanh`` returning the same bits for a value wherever it sits in an
array (a test pins this).  As a consequence equivariance and the
invariance of synchrony subspaces hold *bitwise*, not merely to rounding
tolerance, for the field, the Jacobian-vector product and so the dense
Jacobian alike, and a state's result does not depend on the stack it is
in.
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
    relies on, and non-finite ones, or ones so large (|s| > 19.06) that
    1 - tanh(s)^2 rounds to 0, because the normalization divides by it."""

    s1: float
    s2: float

    def __post_init__(self):
        if self.s1 == 0.0 or self.s2 == 0.0:
            raise ValueError("sigmoid offsets must be nonzero")
        offsets = (self.s1, self.s2)
        if not all(math.isfinite(s) and 1.0 - math.tanh(s) ** 2 > 0.0 for s in offsets):
            raise ValueError("sigmoid offsets must be finite with 1 - tanh(s)^2 > 0 "
                             f"(|s| <= 19.06), got {self.s1}, {self.s2}")


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


def _line_sums(X: np.ndarray, axis: int) -> np.ndarray:
    """The sums of X along axis (keepdims), each a function of its line's
    multiset: a C-ordered copy of X is sorted along axis and added along it
    (numpy adds pairwise along the contiguous last axis and in sequence
    along any other, so the copy's layout fixes the order)."""
    S = X.copy()
    S.sort(axis=axis)
    return np.add.reduce(S, axis=axis, keepdims=True)


@lru_cache(maxsize=64)
def _compiled_model(cfg: ModelConfig):
    """Closures (field, slopes, jvp) for a fixed config on (B, m, n) stacks
    of B states, built from two shared steps: mix(Z), the (2, B, m, n) stack
    A Z + G (C - Z) of both saturations' arguments (C the column sums), and
    close(X, Z) = lam (X[0] + T - X[1]) - Z (T the row sums of X[1]).

    * field(Z) = close(sat(mix(Z)), Z), sat(u) = (tanh(u - s) + tanh(s)) /
      (1 - tanh(s)^2): the stack of the states' fields;
    * slopes(Z) = sat'(mix(Z)): the (2, B, m, n) slopes D1 = D[0] of S1 and
      D2 = D[1] of S2;
    * jvp(D, V) = close(D mix(V), V): J(Z) V for each state when D =
      slopes(Z), the field's pass with each saturation replaced by its slope.

    The per-saturation constants are (2, 1, 1, 1) arrays, so both
    saturations of every state run in one pass, each element by the same
    IEEE operations as one saturation of one state alone (np.tanh gives a
    value the same bits at any offset and array length; a test pins this).
    A stack of one state takes a copy spread over it, contiguous (2, 1, m,
    n) arrays: the same products, without a broadcast operand's cost.
    Column and row sums are _line_sums over the B*n columns and B*m rows,
    so each state's result is a function of its own input *multisets*:
    this makes equivariance and synchrony invariance exact, and keeps a
    state's result independent of the rest of the stack and of its memory
    layout.  The closures hold no scratch buffers and are re-entrant.
    """
    t1, t2 = math.tanh(cfg.sigmoids.s1), math.tanh(cfg.sigmoids.s2)
    many = [np.array(pair).reshape(2, 1, 1, 1) for pair in (
        (cfg.gains.alpha, cfg.gains.beta), (cfg.gains.gamma, cfg.gains.delta),
        (cfg.sigmoids.s1, cfg.sigmoids.s2), (t1, t2), (1.0 - t1 * t1, 1.0 - t2 * t2))]
    one = [np.broadcast_to(c, (2, 1, cfg.shape.m, cfg.shape.n)).copy() for c in many]
    lam = np.array(cfg.lam)

    def mix(Z, A, G):
        C = _line_sums(Z, 1)
        X = A * Z
        X += G * (C - Z)
        return X

    def close(X, Z):
        X2 = X[1]
        T = _line_sums(X2, 2)
        F = X[0] + T
        F -= X2
        F *= lam
        F -= Z
        return F

    def field(Z: np.ndarray) -> np.ndarray:
        A, G, S, T0, DEN = one if len(Z) == 1 else many
        X = mix(Z, A, G)
        X -= S
        np.tanh(X, out=X)
        X += T0
        X /= DEN
        return close(X, Z)

    def slopes(Z: np.ndarray) -> np.ndarray:
        A, G, S, _, DEN = one if len(Z) == 1 else many
        th = np.tanh(mix(Z, A, G) - S)
        return (1.0 - th * th) / DEN

    def jvp(D: np.ndarray, V: np.ndarray) -> np.ndarray:
        A, G, *_ = one if len(V) == 1 else many
        return close(D * mix(V, A, G), V)

    return field, slopes, jvp


def vector_field(Z, cfg: ModelConfig) -> np.ndarray:
    """Time derivative of the value state.

    dz_ij/dt = -z_ij + lam * ( S1(alpha z_ij + gamma * sum_{k!=i} z_kj)
                               + sum_{l!=j} S2(beta z_il + delta * sum_{k!=i} z_kl) )
    """
    Z = as_state(Z, cfg.shape)
    return _compiled_model(cfg)[0](Z[None])[0]


def jacobian(Z, cfg: ModelConfig) -> np.ndarray:
    """Jacobian of the field at Z (mn x mn, row-major cell order), from
    the slopes D1, D2 of the two saturations:

    dF_ij/dz_kl = lam * ( D1_ij [j=l] (gamma + (alpha - gamma) [i=k])
                          + (D2_il - D2_ij [j=l]) (delta + (beta - delta) [i=k]) )
                  - [i=k][j=l]

    Column k is the compiled Jacobian-vector product at slopes(Z) applied
    to the k-th unit state, all mn of them in one stack, the product the
    Newton finish applies to its class indicators, so J inherits its
    bitwise equivariance."""
    Z = as_state(Z, cfg.shape)
    _, slopes, jvp = _compiled_model(cfg)
    cells = cfg.shape.cells
    units = np.eye(cells).reshape(cells, cfg.shape.m, cfg.shape.n)
    return jvp(slopes(Z[None]), units).reshape(cells, cells).T


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
    return CriticalCoefficients(*(sum(x * y for x, y in zip(row, g.as_tuple()))
                                  for row in interaction_matrix(shape)))


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
