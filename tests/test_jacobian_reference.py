"""Property tests: the dense Jacobian, the compiled Jacobian-vector product
on the unit states, agrees with its closed form and with the product on
any direction (hypothesis, derandomized, with the strategies of
test_properties), on lines of 9 or 10 entries with ties and zeros of both
signs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import reference_jacobian  # noqa: E402
from indecision import jacobian  # noqa: E402
from indecision.model import _compiled_model  # noqa: E402
from test_properties import PROPERTY, configs, long_line_shapes, states, tied_values  # noqa: E402

EPS = np.finfo(float).eps


@PROPERTY
@given(st.data())
def test_jacobian_matches_the_closed_form(data):
    # each entry is a few roundings of the same products: the two agree
    # within 4 eps max |J| entry by entry
    cfg = data.draw(configs(long_line_shapes))
    Z = states(data.draw, cfg.shape, values=tied_values(data.draw))
    J, ref = jacobian(Z, cfg), reference_jacobian(Z, cfg)
    assert J.shape == ref.shape == (cfg.shape.cells, cfg.shape.cells)
    assert np.abs(J - ref).max() <= 4 * EPS * np.abs(ref).max()


@PROPERTY
@given(st.data())
def test_jacobian_times_a_state_is_the_jvp(data):
    # J v and jvp(slopes(Z), v) each add at most mn terms no larger than
    # max |J| max |v|, so they agree to mn eps times that, up to a factor
    cfg = data.draw(configs(long_line_shapes))
    Z, V = (states(data.draw, cfg.shape, values=tied_values(data.draw)) for _ in range(2))
    _, slopes, jvp = _compiled_model(cfg)
    J = jacobian(Z, cfg)
    JV = jvp(slopes(Z[None]), V[None])[0]
    bound = 4 * cfg.shape.cells * EPS * np.abs(J).max() * np.abs(V).max()
    assert np.abs(J @ V.ravel() - JV.ravel()).max() <= bound
