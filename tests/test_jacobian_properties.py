"""Property tests: the dense Jacobian is bitwise equivariant and
independent of the state's memory layout on generated configs, states and
symmetries (hypothesis, derandomized, with the strategies of
test_properties).  The stability gate rests on this matrix: its
accept/reject decision runs at every accepted step."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from indecision import jacobian  # noqa: E402
from test_properties import (PROPERTY, bits, configs, long_line_shapes,  # noqa: E402
                             other_layouts, states, tied_values)


@PROPERTY
@given(st.data())
def test_jacobian_is_bitwise_equivariant(data):
    # permuting the state by (sigma, tau) permutes the rows and columns of
    # J by the same permutation of the row-major cells, bit for bit
    cfg = data.draw(configs())
    m, n = cfg.shape.m, cfg.shape.n
    Z = states(data.draw, cfg.shape)
    sigma = data.draw(st.permutations(range(m)))
    tau = data.draw(st.permutations(range(n)))
    cells = [sigma[i] * n + tau[j] for i in range(m) for j in range(n)]
    J = jacobian(Z, cfg)
    assert np.array_equal(bits(jacobian(Z[np.ix_(sigma, tau)], cfg)),
                          bits(J[np.ix_(cells, cells)]))


@PROPERTY
@given(st.data())
def test_jacobian_is_bitwise_on_long_lines_in_any_layout(data):
    # lines of 9 or 10 entries with ties and zeros of both signs: a state
    # permuted by fancy indexing gives the permuted J, and a copy of the
    # state in another layout gives the same bits
    cfg = data.draw(configs(long_line_shapes))
    m, n = cfg.shape.m, cfg.shape.n
    Z = states(data.draw, cfg.shape, values=tied_values(data.draw))
    sigma = data.draw(st.permutations(range(m)))
    tau = data.draw(st.permutations(range(n)))
    cells = [sigma[i] * n + tau[j] for i in range(m) for j in range(n)]
    J = jacobian(Z, cfg)
    assert np.array_equal(bits(jacobian(Z[sigma][:, tau], cfg)), bits(J[np.ix_(cells, cells)]))
    for Zl in other_layouts(Z):
        assert np.array_equal(bits(jacobian(Zl, cfg)), bits(J))
