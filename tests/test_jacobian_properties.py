"""Property test: the dense Jacobian is bitwise equivariant on generated
configs, states and symmetries (hypothesis, derandomized, with the
strategies of test_properties).  The stability gate rests on this matrix:
its accept/reject decision runs at every accepted step."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from indecision import jacobian  # noqa: E402
from test_properties import PROPERTY, bits, configs, states  # noqa: E402


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
