"""Property tests: the field's bitwise guarantees on generated configs,
stacks and symmetries (hypothesis, derandomized so every run checks the
same examples)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from indecision import GainParams, ModelConfig, NetworkShape, SigmoidParams  # noqa: E402
from indecision.model import _compiled_field, _compiled_linearization  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

gain = st.floats(-2.0, 2.0)
offset = st.floats(0.05, 1.5).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def configs(draw, max_side=6):
    shape = NetworkShape(draw(st.integers(2, max_side)), draw(st.integers(2, max_side)))
    return ModelConfig(shape=shape, gains=GainParams(*(draw(gain) for _ in range(4))),
                       sigmoids=SigmoidParams(draw(offset), draw(offset)),
                       lam=draw(st.floats(-2.0, 2.0)))


def states(draw, shape, size=(), values=st.floats(-1e3, 1e3)):
    cells = int(np.prod(size, dtype=int)) * shape.m * shape.n
    return np.array(draw(st.lists(values, min_size=cells, max_size=cells)),
                    dtype=float).reshape(size + (shape.m, shape.n))


def bits(a):
    # the bit patterns of a, with every NaN made the same NaN
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


def field_or_none(f, Z):
    try:
        return f(Z)
    except (OverflowError, ValueError):
        # math.fsum cannot sum a column or row of this stack
        return None


@PROPERTY
@given(st.data())
def test_stacked_field_equals_each_member_alone_bitwise(data):
    # any stack size and any values, non-finite and huge ones included: a
    # stack's field is its members' fields, and it cannot be summed exactly
    # when one member's cannot
    cfg = data.draw(configs())
    size = data.draw(st.integers(1, 5))
    values = st.floats(allow_nan=True, allow_infinity=True) | st.floats(-10.0, 10.0)
    Z = states(data.draw, cfg.shape, (size,), values)
    f = _compiled_field(cfg)
    with np.errstate(all="ignore"):
        stacked = field_or_none(f, Z)
        alone = [field_or_none(f, Zi[None]) for Zi in Z]
    if any(F is None for F in alone):
        assert stacked is None
        return
    assert stacked is not None and stacked.shape == Z.shape
    for Fi, F in zip(stacked, alone):
        assert np.array_equal(bits(Fi), bits(F[0]))


@PROPERTY
@given(st.data())
def test_field_and_jvp_are_bitwise_equivariant(data):
    cfg = data.draw(configs())
    m, n = cfg.shape.m, cfg.shape.n
    Z, V = states(data.draw, cfg.shape), states(data.draw, cfg.shape)
    sigma = data.draw(st.permutations(range(m)))
    tau = data.draw(st.permutations(range(n)))
    perm = np.ix_(sigma, tau)
    f = _compiled_field(cfg)
    slopes, jvp = _compiled_linearization(cfg)
    assert np.array_equal(bits(f(Z[perm][None])[0]), bits(f(Z[None])[0][perm]))
    assert np.array_equal(bits(jvp(slopes(Z[perm]), V[perm])), bits(jvp(slopes(Z), V)[perm]))
