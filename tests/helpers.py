"""Shared test utilities: independent oracles and input generators."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from indecision import (
    Coloring,
    EquilibriumResult,
    IsotropyReport,
    Trajectory,
    all_colorings,
    as_state,
    canonical_form,
    dim_Vd_intersection,
    dissensus_intersection_basis,
    is_balanced,
    spectral_bound,
    tiling_decomposition,
    vector_field,
)
from indecision.integrate import ERROR_ATOL, ERROR_RTOL, RKC_DAMPING
from indecision.model import _compiled_model

# the known exotic 4x6 two-color pattern (columns: one complementary pair
# once, another pair twice) and the generators of its symmetry group
EXOTIC_4X6 = Coloring.from_rows([
    [0, 1, 0, 0, 1, 1],
    [0, 1, 1, 1, 0, 0],
    [1, 0, 0, 0, 1, 1],
    [1, 0, 1, 1, 0, 0],
])

EXOTIC_4X6_GENERATORS = [
    ((2, 3, 0, 1), (1, 0, 2, 3, 4, 5)),      # swap row pairs, swap first two cols
    ((1, 0, 3, 2), (0, 1, 5, 4, 3, 2)),      # swap rows 1-2 and 3-4, reverse cols 3..6
    ((0, 1, 2, 3), (0, 1, 3, 2, 4, 5)),      # swap equal cols 3,4
    ((0, 1, 2, 3), (0, 1, 2, 3, 5, 4)),      # swap equal cols 5,6
]


def compose_pair(a, b):
    """(sigma_a, tau_a) o (sigma_b, tau_b)."""
    return (tuple(a[0][x] for x in b[0]), tuple(a[1][x] for x in b[1]))


def closure_pairs(gens, m, n):
    """Subgroup of S_m x S_n generated by permutation pairs."""
    ident = (tuple(range(m)), tuple(range(n)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                e2 = compose_pair(g, el)
                if e2 not in seen:
                    seen.add(e2)
                    nxt.append(e2)
        frontier = nxt
    return seen


def preserves_coloring(c: Coloring, pair) -> bool:
    sigma, tau = pair
    return all(c.cells[sigma[i]][tau[j]] == c.cells[i][j]
               for i in range(c.m) for j in range(c.n))


def line_of(c: Coloring):
    """The 1-dimensional dissensus intersection as a normalized exact grid."""
    basis = dissensus_intersection_basis(c)
    assert len(basis) == 1
    vec = basis[0]
    flat = [vec[col] for row in c.cells for col in row]
    lead = next(x for x in flat if x != 0)
    return tuple(tuple(vec[col] / lead for col in row) for row in c.cells)


def bordered_latin_roles(e):
    """(zero, red, blue, latin) of a case A or B catalog entry, read off the
    tiling of its coloring: zero is the color of its one-color block (None
    without one), latin its two-color Latin block, red the color with
    rho * q cells in each row of that block (q its width; the lower id when
    rho = 1/2, both then qualifying) and blue the other one."""
    blocks = tiling_decomposition(e.coloring).blocks
    zeros = [min(b.color_set) for b in blocks if len(b.color_set) == 1]
    (latin,) = [b for b in blocks if len(b.color_set) == 2]
    assert len(blocks) == 1 + len(zeros) <= 2
    width = len(latin.cols)
    red = min(c for c in latin.color_set if latin.colors[0].count(c) == e.rho * width)
    (blue,) = latin.color_set - {red}
    return (zeros or [None])[0], red, blue, latin


def corner_colors(c: Coloring):
    """The colors of the top-left, top-right, bottom-left and bottom-right
    cells: the four blocks of a case C catalog entry."""
    return c.cells[0][0], c.cells[0][-1], c.cells[-1][0], c.cells[-1][-1]


def refines(fine: Coloring, coarse: Coloring) -> bool:
    """True when every color class of `fine` sits inside one class of
    `coarse` (same grid)."""
    mapping = {}
    for i in range(fine.m):
        for j in range(fine.n):
            a, b = fine.cells[i][j], coarse.cells[i][j]
            if mapping.setdefault(a, b) != b:
                return False
    return True


def brute_force_axial(m: int, n: int) -> set:
    """Independent enumeration of the axial classes of a small grid.

    Scans every coloring, keeps the balanced ones whose dissensus
    intersection is one-dimensional, and where several such colorings share
    one line keeps the coarsest (a bifurcating branch follows the pattern
    with fewest colors).  Returns the set of canonical forms.
    """
    found = [c for c in all_colorings(m, n)
             if is_balanced(c) and dim_Vd_intersection(c) == 1]
    by_line = {}
    for c in found:
        by_line.setdefault(line_of(c), []).append(c)
    reps = []
    for group in by_line.values():
        best = min(group, key=lambda c: c.num_colors)
        assert sum(1 for c in group if c.num_colors == best.num_colors) == 1, \
            "ambiguous fewest-colors pick"
        for other in group:
            assert refines(other, best)
        reps.append(best)
    return {canonical_form(c) for c in reps}


def two_color_latin_indicators(p: int, q: int, reachable: bool = True):
    """Reference list of all p x q 0/1 arrays with constant row sums and
    constant column sums, both symbols present, as tuples of row tuples:
    DFS over rows (row 0 slowest, each row over combinations(range(q), a))
    with column-capacity pruning.  With `reachable`, a partial array is also
    dropped when some column count plus the rows left is below b, the ones
    per column; such an array has no completion, so the list and its order
    are the same."""
    out = []
    for a in range(1, q):
        if (a * p) % q:
            continue
        b = a * p // q
        row_choices = list(combinations(range(q), a))
        row_of = {comb: tuple(int(j in comb) for j in range(q)) for comb in row_choices}
        colcnt = [0] * q

        def dfs(i, acc):
            if i == p:
                out.append(tuple(acc))
                return
            for comb in row_choices:
                if any(colcnt[j] + 1 > b for j in comb):
                    continue
                for j in comb:
                    colcnt[j] += 1
                if not reachable or min(colcnt) + p - 1 - i >= b:
                    acc.append(row_of[comb])
                    dfs(i + 1, acc)
                    acc.pop()
                for j in comb:
                    colcnt[j] -= 1

        dfs(0, [])
    return out


def reference_canonical_form(c: Coloring) -> Coloring:
    """Reference canonical form: the least column-major word, colors
    renumbered by first occurrence, over all m! row permutations; for each,
    a search over column orders that expands only the columns giving the
    least next chunk (identical columns once)."""
    m, n = c.m, c.n
    cols0 = [tuple(c.cells[i][j] for i in range(m)) for j in range(n)]
    best = None
    for sigma in permutations(range(m)):
        cols = [tuple(col[s] for s in sigma) for col in cols0]
        stack = [(tuple(range(n)), {}, ())]
        while stack:
            remaining, mapping, word = stack.pop()
            if not remaining:
                if best is None or word < best:
                    best = word
                continue
            if best is not None and word > best[:len(word)]:
                continue
            by_chunk = {}
            for idx in remaining:
                mp = dict(mapping)
                chunk = []
                for v in cols[idx]:
                    if v not in mp:
                        mp[v] = len(mp)
                    chunk.append(mp[v])
                by_chunk.setdefault(tuple(chunk), []).append((idx, mp))
            min_chunk = min(by_chunk)
            seen = set()
            for idx, mp in by_chunk[min_chunk]:
                if cols[idx] in seen:
                    continue
                seen.add(cols[idx])
                rest = tuple(x for x in remaining if x != idx)
                stack.append((rest, mp, word + min_chunk))
    return Coloring.from_rows([[best[j * m + i] for j in range(n)] for i in range(m)])


def indicator_key(g) -> tuple:
    """Reference conjugacy key of a 0/1 grid up to row perms, column perms
    and symbol swap: the sorted column tuples, minimized over row
    permutations and the complement."""
    p, q = len(g), len(g[0])
    best = None
    comp = tuple(tuple(1 - x for x in row) for row in g)
    for mat in (g, comp):
        for sigma in permutations(range(p)):
            key = tuple(sorted(tuple(mat[s][j] for s in sigma) for j in range(q)))
            if best is None or key < best:
                best = key
    return best


def random_balanced_coloring(m: int, n: int, rng) -> Coloring:
    """Random grid tiling by Latin rectangles with disjoint colors: random
    row/column group sizes, each block either one color or a random
    two-color Latin rectangle when one exists."""

    def composition(total):
        sizes = []
        left = total
        while left:
            k = int(rng.integers(1, left + 1))
            sizes.append(k)
            left -= k
        return sizes

    row_sizes = composition(m)
    col_sizes = composition(n)
    grid = [[0] * n for _ in range(m)]
    color = 0
    i0 = 0
    for p in row_sizes:
        j0 = 0
        for q in col_sizes:
            two = two_color_latin_indicators(p, q)
            if two and rng.random() < 0.6:
                L = two[int(rng.integers(0, len(two)))]
                for di in range(p):
                    for dj in range(q):
                        grid[i0 + di][j0 + dj] = color + L[di][dj]
                color += 2
            else:
                for di in range(p):
                    for dj in range(q):
                        grid[i0 + di][j0 + dj] = color
                color += 1
            j0 += q
        i0 += p
    return Coloring.from_rows(grid).relabeled()


def random_generic_levels(num: int, rng) -> list[Fraction]:
    """Distinct rationals with spacing at least 1/2, shuffled."""
    base = [Fraction(k, 2) - Fraction(num, 4) for k in range(num)]
    offsets = [Fraction(int(rng.integers(0, 3)), 16) for _ in range(num)]
    levels = [b + o for b, o in zip(base, offsets)]
    assert len(set(levels)) == num
    order = list(rng.permutation(num))
    return [levels[k] for k in order]


def sample_balanced_coloring(rng, max_colors=5, max_cells=12):
    """Random balanced coloring with a bounded color count (finite-difference
    verification of the synthesized maps degrades for very high interpolation
    degrees)."""
    while True:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        if m * n > max_cells:
            continue
        c = random_balanced_coloring(m, n, rng)
        if c.num_colors <= max_colors:
            return c


def numerical_jacobian(Z, cfg, h_fd: float) -> np.ndarray:
    """Central-difference Jacobian of the model field at Z (mn x mn,
    row-major cell order)."""
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    Z = as_state(Z, cfg.shape)
    m, n = Z.shape
    J = np.empty((m * n, m * n))
    for k in range(m * n):
        E = np.zeros((m, n))
        E[divmod(k, n)] = h_fd
        col = (vector_field(Z + E, cfg) - vector_field(Z - E, cfg)) / (2.0 * h_fd)
        if not np.isfinite(col).all():
            raise ValueError("non-finite entries in finite-difference column")
        J[:, k] = col.ravel()
    return J


def reference_jacobian(Z, cfg) -> np.ndarray:
    """Closed-form Jacobian of the field at Z (mn x mn, row-major cell
    order), from the slopes D1, D2 of the two saturations:

    dF_ij/dz_kl = lam * ( D1_ij [j=l] (gamma + (alpha - gamma) [i=k])
                          + (D2_il - D2_ij [j=l]) (delta + (beta - delta) [i=k]) )
                  - [i=k][j=l]
    """
    Z = as_state(Z, cfg.shape)
    m, n = cfg.shape.m, cfg.shape.n
    a, b, g, d = cfg.gains.as_tuple()
    D1, D2 = _compiled_model(cfg)[1](Z[None])[:, 0]
    same_row = np.eye(m)[:, None, :, None]   # [i=k], axes (i, j, k, l)
    same_col = np.eye(n)[None, :, None, :]   # [j=l]
    w1 = g + (a - g) * same_row
    w2 = d + (b - d) * same_row
    J = cfg.lam * (D1[:, :, None, None] * same_col * w1
                   + (D2[:, None, None, :] - D2[:, :, None, None] * same_col) * w2) \
        - same_row * same_col
    return J.reshape(m * n, m * n)


def reference_field(cfg):
    """Reference vector field of one m x n state: the two saturations
    evaluated one after the other, with Python-float constants, and each
    column and row sum taken over the sorted line of a C-ordered copy."""
    a, b, g, d = cfg.gains.as_tuple()
    s1, s2 = cfg.sigmoids.s1, cfg.sigmoids.s2
    lam = cfg.lam
    t1, t2 = math.tanh(s1), math.tanh(s2)
    den1, den2 = 1.0 - t1 * t1, 1.0 - t2 * t2

    def field(Z):
        Z = np.array(Z, order="C")
        C = np.sort(Z, axis=0).sum(axis=0)
        U = a * Z + g * (C - Z)
        S1 = (np.tanh(U - s1) + t1) / den1
        W = b * Z + d * (C - Z)
        S2 = (np.tanh(W - s2) + t2) / den2
        T = np.sort(S2, axis=1).sum(axis=1, keepdims=True)
        return -Z + lam * (S1 + T - S2)

    return field


def gershgorin_bound(cfg):
    """The Gershgorin bound
    rho = 1 + |lam| (D1 (|alpha| + (m-1)|gamma|) + D2 (n-1) (|beta| + (m-1)|delta|))
    on every absolute row sum of the Jacobian, Dk = 1 / (1 - tanh(sk)^2)
    the largest slope of saturation k."""
    m, n = cfg.shape.m, cfg.shape.n
    a, b, g, d = (abs(x) for x in cfg.gains.as_tuple())
    D1, D2 = (1.0 / (1.0 - math.tanh(s) ** 2) for s in (cfg.sigmoids.s1, cfg.sigmoids.s2))
    return 1.0 + abs(cfg.lam) * (D1 * (a + (m - 1) * g) + D2 * (n - 1) * (b + (m - 1) * d))


def uniform_slope_jacobian(cfg, d1, d2):
    """The closed form of reference_jacobian with every slope of
    saturation 1 equal to d1 and every slope of saturation 2 equal to d2:

    dF_ij/dz_kl = lam * ( d1 [j=l] (gamma + (alpha - gamma) [i=k])
                          + d2 (1 - [j=l]) (delta + (beta - delta) [i=k]) )
                  - [i=k][j=l]
    """
    m, n = cfg.shape.m, cfg.shape.n
    a, b, g, d = cfg.gains.as_tuple()
    same_row = np.eye(m)[:, None, :, None]
    same_col = np.eye(n)[None, :, None, :]
    J = cfg.lam * (d1 * same_col * (g + (a - g) * same_row)
                   + d2 * (1.0 - same_col) * (d + (b - d) * same_row)) \
        - same_row * same_col
    return J.reshape(m * n, m * n)


def reference_rkc_coefficients(s):
    """Per stage j = 1..s, (c0, mu, nu, mut, gt) of an s-stage RKC step
    with damping RKC_DAMPING, as Python floats: Y_1 = Y_0 + mut_1 h F(Y_0)
    and Y_j = c0 Y_0 + mu Y_j-1 + nu Y_j-2 + mut h F(Y_j-1) + gt h F(Y_0),
    from the Chebyshev polynomials T_j at w0 and their first two
    derivatives (Sommeijer, Shampine & Verwer 1997)."""
    w0 = 1.0 + RKC_DAMPING / (s * s)
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[-1] - T[-2])
        dT.append(2.0 * w0 * dT[-1] + 2.0 * T[-2] - dT[-2])
        d2T.append(2.0 * w0 * d2T[-1] + 4.0 * dT[-2] - d2T[-2])
    w1 = dT[s] / d2T[s]
    b = [d2T[max(j, 2)] / dT[max(j, 2)] ** 2 for j in range(s + 1)]
    stages = {1: (0.0, 0.0, 0.0, b[1] * w1, 0.0)}
    for j in range(2, s + 1):
        mu = 2.0 * w0 * b[j] / b[j - 1]
        nu = -b[j] / b[j - 2]
        mut = 2.0 * w1 * b[j] / b[j - 1]
        stages[j] = (1.0 - mu - nu, mu, nu, mut, -(1.0 - b[j - 1] * T[j - 1]) * mut)
    return stages


def reference_integrate(Z0, cfg, icfg):
    """Reference RKC loop for one start: Python-float coefficients, step,
    time and error norm, the two-pass reference field, a copy of every
    accepted state, and a run that stops at the first residual within
    tolerance (no stability gate, no Newton finish)."""
    Z = np.asarray(Z0, dtype=float)
    f = reference_field(cfg)
    rho = spectral_bound(cfg)
    tol, t_max = icfg.equilibrium_tol, icfg.t_max
    traj = Trajectory()
    t, h = 0.0, icfg.step
    n_steps = n_evals = 0
    stop = None
    with np.errstate(over="ignore", invalid="ignore"):
        F = f(Z)
        n_evals += 1
        if not np.isfinite(F).all():
            traj.append(t, Z.copy())
            stop, residual = "diverged", float("inf")
        while stop is None:
            traj.append(t, Z.copy())
            residual = float(np.abs(F).max())
            if residual <= tol:
                stop = "tolerance"
                break
            if t >= t_max:
                stop = "t_max"
                break
            while True:
                s = 1 + int(math.sqrt(1.0 + 1.54 * h * rho))
                coef = reference_rkc_coefficients(s)
                Y2, Y1 = Z, Z + (coef[1][3] * h) * F
                for j in range(2, s + 1):
                    c0, mu, nu, mut, gt = coef[j]
                    Y = c0 * Z + mu * Y1 + nu * Y2 + (mut * h) * f(Y1) + (gt * h) * F
                    Y2, Y1 = Y1, Y
                FY = f(Y1)
                n_evals += s
                if not np.isfinite(FY).all():
                    stop, residual = "diverged", float("inf")
                    break
                W = ERROR_ATOL + ERROR_RTOL * np.maximum(np.abs(Z), np.abs(Y1))
                err = float(np.abs((0.8 * (Z - Y1) + (0.4 * h) * (F + FY)) / W).max())
                accepted = err <= 1.0
                if accepted:
                    Z, F = Y1, FY
                    t = t_max if h == t_max - t else t + h
                    n_steps += 1
                if not math.isfinite(err):
                    factor = 0.1
                elif err == 0.0:
                    factor = 10.0
                else:
                    factor = min(10.0, max(0.1, 0.8 * err ** (-1 / 3)))
                h = min(h * factor, t_max - t)
                if accepted:
                    break
    return traj, EquilibriumResult(final=traj.final, converged=stop in ("tolerance", "newton"),
                                   residual=residual, elapsed_time=t, n_steps=n_steps,
                                   n_evals=n_evals, diverged=stop == "diverged",
                                   stop_reason=stop, spectral_abscissa=None)


# ---------------------------------------------------------------------------
# exact-layer oracles: the direct computations that the package speeds up
# ---------------------------------------------------------------------------

def reference_balance_witness(c: Coloring):
    """Balance witness from full per-cell input signatures: the color count
    vectors of each cell's row, column and diagonal inputs (own cell left
    out of row and column, added back in the diagonal count).  Each cell is
    compared with the first cell of its color in row-major order; the kind
    is the first signature part that differs."""
    m, n, K = c.m, c.n, c.num_colors
    rowcnt = [[sum(x == k for x in row) for k in range(K)] for row in c.cells]
    colcnt = [[sum(x == k for x in col) for k in range(K)] for col in zip(*c.cells)]
    total = [sum(col) for col in zip(*rowcnt)]

    def signature(i, j):
        own = [int(k == c.cells[i][j]) for k in range(K)]
        return ([rowcnt[i][k] - own[k] for k in range(K)],
                [colcnt[j][k] - own[k] for k in range(K)],
                [total[k] - rowcnt[i][k] - colcnt[j][k] + own[k] for k in range(K)])

    rep = {}
    for i in range(m):
        for j in range(n):
            col = c.cells[i][j]
            if col not in rep:
                rep[col] = (i, j)
                continue
            ref, cur = signature(*rep[col]), signature(i, j)
            if ref != cur:
                kind = ("row", "column", "diagonal")[
                    next(k for k in range(3) if ref[k] != cur[k])]
                return (rep[col], (i, j), kind)
    return None


def reference_dissensus_basis(c: Coloring):
    """Basis of the color-constant states with zero row and column sums,
    from a Fraction reduced row echelon form of every row's and column's
    color counts; its length is the dimension."""
    K = c.num_colors
    mat = [[Fraction(sum(x == k for x in line)) for k in range(K)]
           for line in list(c.cells) + list(zip(*c.cells))]
    pivots, r = [], 0
    for col in range(K):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                mat[i] = [a - mat[i][col] * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    for fc in (k for k in range(K) if k not in pivots):
        vec = [Fraction(0)] * K
        vec[fc] = Fraction(1)
        for row, pc in enumerate(pivots):
            vec[pc] = -mat[row][fc]
        basis.append(tuple(vec))
    return basis


def reference_isotropy_subgroup(c: Coloring) -> IsotropyReport:
    """Isotropy report from a loop over all min(m, n)! row permutations of
    the shorter side: sigma is kept when the moved columns equal the
    original ones as a multiset, and the report is built as
    `isotropy_subgroup` documents, generators in lexicographic order of
    sigma^-1."""
    m, n = c.m, c.n
    if m > n:
        rep = reference_isotropy_subgroup(Coloring(tuple(zip(*c.cells))))
        orbits = (frozenset((i, j) for j, i in orbit) for orbit in rep.orbit_partition)
        return IsotropyReport(group_order=rep.group_order,
                              generators=[(sigma, tau) for tau, sigma in rep.generators],
                              orbit_partition=tuple(sorted(orbits, key=sorted)),
                              verdict=rep.verdict)
    cols = [tuple(c.cells[i][j] for i in range(m)) for j in range(n)]
    groups = {}
    for j, v in enumerate(cols):
        groups.setdefault(v, []).append(j)
    taus = {}
    for inv in permutations(range(m)):     # inv = sigma^-1
        moved = [tuple(col[k] for k in inv) for col in cols]
        if sorted(moved) == sorted(cols):
            sigma = tuple(sorted(range(m), key=inv.__getitem__))
            pools = {v: iter(g) for v, g in groups.items()}
            taus[sigma] = tuple(next(pools[v]) for v in moved)
    order = len(taus)
    for g in groups.values():
        order *= math.factorial(len(g))
    gens = [(sigma, tau) for sigma, tau in taus.items() if sigma != tuple(range(m))]
    for g in groups.values():
        for a, b in zip(g, g[1:]):
            tau = list(range(n))
            tau[a], tau[b] = b, a
            gens.append((tuple(range(m)), tuple(tau)))
    orbits = {frozenset((sigma[i], k) for sigma, tau in taus.items()
                        for k in groups[cols[tau[j]]])
              for i in range(m) for j in range(n)}
    orbit_partition = tuple(sorted(orbits, key=sorted))
    colors = tuple(sorted(c.color_classes(), key=sorted))
    return IsotropyReport(group_order=order, generators=gens, orbit_partition=orbit_partition,
                          verdict="Orbital" if orbit_partition == colors else "Exotic")


def reference_hermite_double_nodes(levels: list[Fraction]) -> tuple[Fraction, ...]:
    """Reference Hermite interpolation with f(v)=0, f'(v)=-1 at every level:
    the Newton form over doubled nodes from a divided-difference table,
    expanded to exact ascending monomial coefficients."""
    nodes: list[Fraction] = []
    for v in levels:
        nodes.extend((v, v))
    N = len(nodes)
    # divided difference table with repeated nodes; column 0 is f(v) = 0
    table = [[Fraction(0)] * N for _ in range(N)]
    for order in range(1, N):
        for i in range(N - order):
            if nodes[i + order] == nodes[i]:
                # only order 1 can hit this with doubled nodes
                table[i][order] = Fraction(-1)
            else:
                table[i][order] = (table[i + 1][order - 1] - table[i][order - 1]) \
                    / (nodes[i + order] - nodes[i])
    # expand newton form sum_k c_k prod_{l<k} (x - nodes[l])
    coeffs = [Fraction(0)] * N
    basis = [Fraction(1)]  # coefficients of prod so far
    for k in range(N):
        for p, b in enumerate(basis):
            coeffs[p] += table[0][k] * b
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for p, b in enumerate(basis):
            new_basis[p + 1] += b
            new_basis[p] -= nodes[k] * b
        basis = new_basis
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)
