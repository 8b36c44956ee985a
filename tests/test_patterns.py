import json

import numpy as np
import pytest

from indecision import (
    AmbiguousQuantizationError,
    Coloring,
    NetworkShape,
    PatternClass,
    axial_values,
    classify_state,
    enumerate_axial,
    match_axial,
    quantize_to_coloring,
    zero_sum_report,
)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_constant_matrix():
    c = quantize_to_coloring(np.full((3, 4), 1.7), 1e-6)
    assert c.num_colors == 1


def test_quantize_checker():
    c = quantize_to_coloring(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1e-6)
    assert c.cells == ((1, 0), (0, 1))  # color 0 is the smaller value


def test_quantize_orders_colors_by_value():
    Z = np.array([[0.5, -2.0, 3.0], [3.0, 0.5, -2.0]])
    c = quantize_to_coloring(Z, 1e-6)
    assert c.cells[0] == (1, 0, 2)


def test_quantize_merges_within_tol():
    Z = np.array([[0.0, 1e-7], [1.0, 1.0 + 1e-7]])
    c = quantize_to_coloring(Z, 1e-5)
    assert c.num_colors == 2


def test_quantize_ambiguous_chain_rejected():
    # a chain of near-spaced values: each gap below tol, total far above it
    vals = np.arange(14) * 0.09
    Z = vals.reshape(2, 7)
    with pytest.raises(AmbiguousQuantizationError):
        quantize_to_coloring(Z, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite(bad):
    Z = np.array([[1.0, -1.0], [-1.0, bad]])
    with pytest.raises(ValueError, match="non-finite"):
        quantize_to_coloring(Z, 1e-6)


def test_quantize_rejects_bad_tol():
    with pytest.raises(ValueError):
        quantize_to_coloring(np.zeros((2, 2)), 0.0)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_fully_synchronous():
    Z = np.full((3, 4), 0.2)
    rep = classify_state(quantize_to_coloring(Z, 1e-6), Z)
    assert rep.pattern_class is PatternClass.FULLY_SYNCHRONOUS
    assert rep.agent_clusters == [[0, 1, 2]]
    assert rep.option_clusters == [[0, 1, 2, 3]]


def test_classify_consensus_two_option_blocks():
    row = np.array([2.0, 2.0, -1.0, -1.0])
    Z = np.tile(row, (3, 1))
    rep = classify_state(quantize_to_coloring(Z, 1e-6), Z)
    assert rep.pattern_class is PatternClass.CONSENSUS
    assert rep.agent_clusters == [[0, 1, 2]]
    assert sorted(map(sorted, rep.option_clusters)) == [[0, 1], [2, 3]]


def test_classify_deadlock_is_transposed_consensus():
    col = np.array([2.0, 2.0, -1.0, -1.0])
    Z = np.tile(col[:, None], (1, 3))
    rep = classify_state(quantize_to_coloring(Z, 1e-6), Z)
    assert rep.pattern_class is PatternClass.DEADLOCK
    assert sorted(map(sorted, rep.agent_clusters)) == [[0, 1], [2, 3]]
    assert rep.option_clusters == [[0, 1, 2]]


def test_classify_dissensus():
    Z = np.array([[1.0, -1.0], [-1.0, 1.0]])
    rep = classify_state(quantize_to_coloring(Z, 1e-6), Z)
    assert rep.pattern_class is PatternClass.DISSENSUS


def test_classify_invariant_under_conjugation():
    rng = np.random.default_rng(12)
    Z = np.array([[0.3, 0.3, -0.6], [0.3, 0.3, -0.6], [-0.1, -0.1, 0.2]])
    base = classify_state(quantize_to_coloring(Z, 1e-6), Z).pattern_class
    for _ in range(10):
        sigma, tau = rng.permutation(3), rng.permutation(3)
        Zp = Z[np.ix_(sigma, tau)]
        assert classify_state(quantize_to_coloring(Zp, 1e-6), Zp).pattern_class is base


def test_agent_clusters_match_coloring_rows():
    Z = np.array([[1.0, 2.0, 1.0], [1.0, 2.0, 1.0], [2.0, 1.0, 1.0]])
    c = quantize_to_coloring(Z, 1e-6)
    rep = classify_state(c, Z)
    # rows 0 and 1 have identical colorings, row 2 does not
    assert sorted(map(sorted, rep.agent_clusters)) == [[0, 1], [2]]


def test_pattern_report_json_fields():
    Z = np.array([[1.0, -1.0], [-1.0, 1.0]])
    rep = classify_state(quantize_to_coloring(Z, 1e-6), Z)
    rep.quantization_tol = 1e-6
    payload = json.loads(json.dumps(rep.to_dict()))
    assert set(payload) == {"class", "agent_clusters", "option_clusters",
                            "color_values", "row_sums", "col_sums",
                            "quantization_tol"}
    assert payload["class"] == "Dissensus"
    assert payload["row_sums"] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# zero-sum diagnostics
# ---------------------------------------------------------------------------

def test_zero_sum_consensus_subspace_element():
    row = np.array([1.0, -1.0, 0.5, -0.5])
    Z = np.tile(row, (3, 1))
    max_row, max_col, amp = zero_sum_report(Z)
    assert max_row == 0.0
    assert amp == 1.0


def test_zero_sum_dissensus_subspace_element():
    Z = np.array([[1.0, -1.0], [-1.0, 1.0]])
    max_row, max_col, amp = zero_sum_report(Z)
    assert max_row == 0.0 and max_col == 0.0 and amp == 1.0


# ---------------------------------------------------------------------------
# catalog matching
# ---------------------------------------------------------------------------

def test_match_axial_round_trip():
    shape = NetworkShape(3, 4)
    catalog = enumerate_axial(shape)
    for entry in catalog:
        Z = np.array(axial_values(entry, 0.8), dtype=float)
        got = match_axial(Z, catalog, tol=1e-9)
        assert got is entry


def test_match_axial_none_for_synchronous():
    catalog = enumerate_axial(NetworkShape(3, 4))
    assert match_axial(np.full((3, 4), 0.3), catalog, tol=1e-6) is None


def test_match_axial_invariant_under_conjugation():
    rng = np.random.default_rng(13)
    shape = NetworkShape(3, 4)
    catalog = enumerate_axial(shape)
    for entry in catalog:
        Z = np.array(axial_values(entry, 1.3), dtype=float)
        Zp = Z[np.ix_(rng.permutation(3), rng.permutation(4))]
        assert match_axial(Zp, catalog, tol=1e-9) is entry


def test_axial_value_colorings_classify_dissensus():
    for m, n in ((2, 2), (2, 4), (3, 4), (4, 6)):
        for entry in enumerate_axial(NetworkShape(m, n)):
            Z = np.array(axial_values(entry, 1.0), dtype=float)
            rep = classify_state(quantize_to_coloring(Z, 1e-9), Z)
            assert rep.pattern_class is PatternClass.DISSENSUS
