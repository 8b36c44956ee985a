"""Discrete value patterns: quantization, decision classes, diagnostics.

A converged state is turned into a coloring (cells sharing a value level get
one color id) and classified in decision language:

  FullySynchronous  one agent-cluster and one option-cluster (indecision)
  Consensus         one agent-cluster, at least two option-clusters
  Deadlock          one option-cluster, at least two agent-clusters
  Dissensus         neither rows all equal nor columns all equal

Color ids are assigned in ascending order of representative value, so id 0
is always the lowest level ("red is small, blue is high" in heatmaps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Coloring",
    "PatternClass",
    "PatternReport",
    "AmbiguousQuantizationError",
    "quantize_to_coloring",
    "classify_state",
    "zero_sum_report",
    "match_axial",
]


class AmbiguousQuantizationError(ValueError):
    """A value cluster is wider than 10x the quantization tolerance."""


@dataclass(frozen=True)
class Coloring:
    """Dense coloring of an m x n grid; ids run 0..num_colors-1 and every id
    occurs.  Stored as nested tuples so colorings are hashable."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise ValueError("coloring must be a nonempty grid")
        w = len(self.cells[0])
        if any(len(r) != w for r in self.cells):
            raise ValueError("ragged coloring")
        used = sorted({c for row in self.cells for c in row})
        if used != list(range(len(used))):
            raise ValueError("color ids must be dense from 0")

    @classmethod
    def from_rows(cls, rows) -> "Coloring":
        return cls(tuple(tuple(int(c) for c in row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0])

    @property
    def num_colors(self) -> int:
        return 1 + max(max(r) for r in self.cells)

    def to_array(self) -> np.ndarray:
        return np.array(self.cells, dtype=int)

    def color_classes(self) -> list[frozenset]:
        """Cell sets per color id."""
        classes = [set() for _ in range(self.num_colors)]
        for i, row in enumerate(self.cells):
            for j, c in enumerate(row):
                classes[c].add((i, j))
        return [frozenset(s) for s in classes]

    def relabeled(self) -> "Coloring":
        """Same partition with ids renumbered in row-major first-occurrence
        order."""
        mapping: dict[int, int] = {}
        out = []
        for row in self.cells:
            r = []
            for c in row:
                if c not in mapping:
                    mapping[c] = len(mapping)
                r.append(mapping[c])
            out.append(tuple(r))
        return Coloring(tuple(out))

    def to_text(self) -> str:
        """One line per row, space-separated color ids."""
        return "\n".join(" ".join(str(c) for c in row) for row in self.cells)

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        return cls.from_rows([[int(c) for c in row] for row in rows])


class PatternClass(str, Enum):
    FULLY_SYNCHRONOUS = "FullySynchronous"
    CONSENSUS = "Consensus"
    DEADLOCK = "Deadlock"
    DISSENSUS = "Dissensus"


@dataclass
class PatternReport:
    pattern_class: PatternClass
    agent_clusters: list[list[int]]
    option_clusters: list[list[int]]
    color_values: dict[int, float]
    row_sums: list[float]
    col_sums: list[float]
    quantization_tol: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready fields; color ids become string keys."""
        return {
            "class": self.pattern_class.value,
            "agent_clusters": self.agent_clusters,
            "option_clusters": self.option_clusters,
            "color_values": {str(k): v for k, v in self.color_values.items()},
            "row_sums": self.row_sums,
            "col_sums": self.col_sums,
            "quantization_tol": self.quantization_tol,
        }


def quantize_to_coloring(Z, tol: float) -> Coloring:
    """Single-linkage clustering of all entries on the real line: two values
    join when they are within tol, colors ordered by ascending cluster mean.

    A chain of nearby values can produce a cluster much wider than tol; a
    cluster whose diameter exceeds 10*tol is rejected as ambiguous.  A state
    with a NaN or infinite entry has no levels and raises ValueError, as
    does a tol that is not positive and finite.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    Z = np.asarray(Z, dtype=float)
    if not np.isfinite(Z).all():
        raise ValueError("state has non-finite entries")
    m, n = Z.shape
    order = sorted(((Z[i, j], i, j) for i in range(m) for j in range(n)))
    clusters: list[list[tuple[float, int, int]]] = [[order[0]]]
    for item in order[1:]:
        if item[0] - clusters[-1][-1][0] <= tol:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    for cl in clusters:
        diam = cl[-1][0] - cl[0][0]
        if diam > 10.0 * tol:
            raise AmbiguousQuantizationError(
                f"cluster [{cl[0][0]:.6g}, {cl[-1][0]:.6g}] has diameter "
                f"{diam:.3g} > 10*tol = {10 * tol:.3g}")
    grid = [[0] * n for _ in range(m)]
    for cid, cl in enumerate(clusters):  # clusters already in ascending-mean order
        for _, i, j in cl:
            grid[i][j] = cid
    return Coloring.from_rows(grid)


def _equal_groups(rows) -> list[list[int]]:
    groups: list[list[int]] = []
    seen: dict[tuple, int] = {}
    for idx, row in enumerate(rows):
        key = tuple(row)
        if key in seen:
            groups[seen[key]].append(idx)
        else:
            seen[key] = len(groups)
            groups.append([idx])
    return groups


def classify_state(c: Coloring, Z) -> PatternReport:
    """Clusters are the equal-row / equal-column partitions of the coloring;
    the class follows from how many of each there are."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (c.m, c.n):
        raise ValueError("state shape does not match coloring")
    agent_clusters = _equal_groups(c.cells)
    option_clusters = _equal_groups(list(zip(*c.cells)))
    one_agent = len(agent_clusters) == 1
    one_option = len(option_clusters) == 1
    if one_agent and one_option:
        cls = PatternClass.FULLY_SYNCHRONOUS
    elif one_agent:
        cls = PatternClass.CONSENSUS
    elif one_option:
        cls = PatternClass.DEADLOCK
    else:
        cls = PatternClass.DISSENSUS
    color_values = {}
    arr = c.to_array()
    for cid in range(c.num_colors):
        color_values[cid] = float(Z[arr == cid].mean())
    return PatternReport(
        pattern_class=cls,
        agent_clusters=agent_clusters,
        option_clusters=option_clusters,
        color_values=color_values,
        row_sums=[float(x) for x in Z.sum(axis=1)],
        col_sums=[float(x) for x in Z.sum(axis=0)],
    )


def zero_sum_report(Z) -> tuple[float, float, float]:
    """(max |row sum|, max |column sum|, max |entry|) for zero-row-sum /
    zero-column-sum diagnostics."""
    Z = np.asarray(Z, dtype=float)
    return (
        float(np.abs(Z.sum(axis=1)).max()),
        float(np.abs(Z.sum(axis=0)).max()),
        float(np.abs(Z).max()),
    )


def match_axial(Z, catalog, tol: float):
    """Quantize Z and look it up in an axial catalog by canonical form.

    Returns the matching catalog entry or None.  Quantization ambiguity
    propagates as AmbiguousQuantizationError.
    """
    coloring = quantize_to_coloring(Z, tol)
    return catalog.match(coloring)
