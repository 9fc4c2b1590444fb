"""One node per layer tail: each fused node is bit-identical to its chain.

``F.relu_dropout`` replaces ``F.dropout(F.relu(x))`` and ``F.sage_conv``
replaces ``lin_neigh(F.gather_segment_<agg>(x_src, plan)) +
lin_root(x_dst)``.  Fusion changes how many passes run, never a bit: the
fused node's output, every gradient and (for dropout) the generator's next
draw must be ``array_equal`` to the unsplit composed chain's, whether the
fused node runs unsplit or split across a helper thread.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import SAGEConv
from repro.telemetry import MetricsRegistry
from repro.tensor import AggregationPlan, CoreSplitter, Tensor, kernels, split_scope
from repro.tensor import functional as F
from repro.tensor.kernels import ELEMENT_GRAIN, GEMM_GRAIN


def _split(parts, fn):
    """``fn()`` under a ``parts``-way splitter: (result, split ops run)."""
    metrics = MetricsRegistry()
    splitter = CoreSplitter(metrics)
    splitter.parts = parts
    try:
        with split_scope(splitter):
            result = fn()
    finally:
        splitter.close()
    return result, metrics.value("compute_split_ops")


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)


def around(grain):
    """Extents just below, at and just above one and two grains (two or
    more split), or anywhere from two to three grains."""
    ks = [(1, -1), (1, 0), (2, -1), (2, 0), (2, 1), (3, 0)]
    return st.one_of(
        st.sampled_from([max(1, k * grain + d) for k, d in ks]),
        st.integers(2 * grain - 1, 3 * grain + 1),
    )


def _element_grain_rows(shape):
    return -(-ELEMENT_GRAIN // (shape[1] if len(shape) == 2 else 1))


# ----------------------------------------------------------------------
# relu → dropout
# ----------------------------------------------------------------------
@st.composite
def elementwise_shape(draw):
    """1-D, or 2-D with a model-like width; rows around the element grain."""
    width = draw(st.sampled_from([None, 3, 40, 256]))
    shape = (1,) if width is None else (1, width)
    return (draw(around(_element_grain_rows(shape))),) + shape[1:]


@pytest.mark.parametrize("parts", [1, 2])
@settings(max_examples=40, deadline=None)
@given(
    shape=elementwise_shape(),
    p=st.sampled_from([0.5, 0.1, 0.0]),
    training=st.sampled_from([True, True, False]),
    dtype=st.sampled_from([np.float32, np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
def test_relu_dropout_equals_dropout_of_relu(parts, shape, p, training, dtype, seed):
    data = np.random.default_rng(seed)
    x_np = data.normal(size=shape).astype(dtype)
    x_np.flat[:: max(1, x_np.size // 7)] = 0.0  # relu's kink: x == 0 passes nothing
    g_np = data.normal(size=shape).astype(dtype)

    def run(op):
        rng = np.random.default_rng(seed)
        x = Tensor(x_np, requires_grad=True)
        out = op(x, rng)
        out.backward(g_np)
        return [np.array(out.data), np.array(x.grad)], rng.integers(1 << 62)

    want, want_next = run(
        lambda x, rng: F.dropout(F.relu(x), p=p, training=training, rng=rng)
    )
    (got, got_next), ops = _split(
        parts,
        lambda: run(lambda x, rng: F.relu_dropout(x, p=p, training=training, rng=rng)),
    )
    _assert_same(got, want)
    assert got_next == want_next
    event(f"split ops: {ops}")
    # forward and backward each split once when there are two grains of rows
    splits = parts == 2 and training and p > 0 and shape[0] >= 2 * _element_grain_rows(shape)
    assert ops == 2 * splits


def test_relu_dropout_is_one_node():
    x = Tensor(np.linspace(-1, 1, 12, dtype=np.float32), requires_grad=True)
    out = F.relu_dropout(x, p=0.5, rng=np.random.default_rng(0))
    assert out._op == "relu_dropout" and out._parents == (x,)
    evaluated = F.relu_dropout(x, p=0.5, training=False)
    assert evaluated._op == "relu"


# ----------------------------------------------------------------------
# Dropout probability: validated before any shortcut
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", [F.dropout, F.relu_dropout])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("p", [-0.2, 1.0, 1.5, float("nan")])
def test_invalid_p_is_refused_in_both_modes(op, training, p):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        op(Tensor(np.ones(3, dtype=np.float32)), p=p, training=training)


@pytest.mark.parametrize("p", [-0.2, 1.0, 2.0])
def test_dropout_module_refuses_invalid_p(p):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        nn.Dropout(p=p)


# ----------------------------------------------------------------------
# SAGE's layer tail
# ----------------------------------------------------------------------
def _gemm_grain(row_work):
    return max(2, -(-GEMM_GRAIN // row_work))


@st.composite
def sage_case(draw):
    """A conv whose gemms sit around the split grain, and its inputs."""
    n_in = draw(st.sampled_from([3, 17, 64, 128]))
    n_out = draw(st.sampled_from([w for w in (2, 5, 64, 256) if n_in * w >= 600]))
    n_dst = draw(around(_gemm_grain(n_in * n_out)))
    n_src = n_dst + draw(st.integers(1, 300))
    n_edges = draw(st.sampled_from([0, 1, 4 * n_dst]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_src, size=n_edges)
    dst = rng.integers(0, max(1, n_dst - 3), size=n_edges)  # the last targets: no edges
    plan = AggregationPlan(src, dst, n_src, n_dst)
    return n_in, n_out, plan, rng


@pytest.mark.parametrize("parts", [1, 2])
@settings(max_examples=40, deadline=None)
@given(
    case=sage_case(),
    aggregator=st.sampled_from(["mean", "sum"]),
    bias=st.booleans(),
    src_on_tape=st.booleans(),
    x_dst=st.sampled_from(["prefix", "leaf", "off-tape", "shifted"]),
    dtype=st.sampled_from([np.float32, np.float32, np.float64]),
)
@example(  # nothing on the tape needs an input gradient: only the forward pair splits
    case=(128, 5, AggregationPlan(np.empty(0, np.int64), np.empty(0, np.int64), 26217, 26216),
          np.random.default_rng(0)),
    aggregator="mean",
    bias=False,
    src_on_tape=False,
    x_dst="prefix",
    dtype=np.float32,
)
def test_sage_conv_node_equals_the_composed_chain(
    parts, case, aggregator, bias, src_on_tape, x_dst, dtype
):
    """Output and the gradients of ``x_src``, an independent ``x_dst``,
    both weights and the bias.  ``shifted`` slices ``x_src`` off its
    first row: a tape slice that is not the target prefix."""
    n_in, n_out, plan, rng = case
    n_dst = plan.n_dst
    conv = SAGEConv(n_in, n_out, bias=bias, aggregator=aggregator, rng=rng)
    for param in conv.parameters():
        param.data = param.data.astype(dtype)
    x_np = rng.normal(size=(plan.n_src, n_in)).astype(dtype)
    dst_np = rng.normal(size=(n_dst, n_in)).astype(dtype)
    g_np = rng.normal(size=(n_dst, n_out)).astype(dtype)
    gather = getattr(F, f"gather_segment_{aggregator}")

    def run(forward):
        conv.zero_grad()
        x_src = Tensor(x_np, requires_grad=src_on_tape)
        if x_dst == "prefix":
            target = x_src[:n_dst]
        elif x_dst == "shifted":
            target = x_src[1 : n_dst + 1]
        else:
            target = Tensor(dst_np, requires_grad=x_dst == "leaf")
        out = forward(x_src, target)
        out.backward(g_np)
        grads = [x_src.grad, target.grad] + [p.grad for p in conv.parameters()]
        return [np.array(out.data)] + [None if g is None else np.array(g) for g in grads]

    def composed(x, t):
        return conv.lin_neigh(gather(x, plan)) + conv.lin_root(t)

    want, _ = _split(1, lambda: run(composed))
    edge_index = np.stack([plan.src, plan.dst])
    got, ops = _split(parts, lambda: run(lambda x, t: conv((x, t), edge_index)))
    _assert_same(got, want)
    event(f"split ops: {ops}")
    if parts == 1:
        assert ops == 0
    elif dtype == np.float32 and n_dst >= 2 * _gemm_grain(n_in * n_out):
        # The forward pair always splits; the grad_x pair only when some
        # input on the tape needs a gradient (grad_w may be too narrow).
        needs_grad_x = src_on_tape or x_dst == "leaf"
        assert ops >= (2 if needs_grad_x else 1)


def test_sage_conv_node_skips_the_prefix_slice():
    """The target prefix is not a parent: its slice node never runs."""
    rng = np.random.default_rng(0)
    conv = SAGEConv(4, 3, rng=rng)
    x = Tensor(rng.normal(size=(6, 4)).astype(np.float32), requires_grad=True)
    target = x[:4]
    out = conv((x, target), np.array([[0, 5, 2], [0, 1, 3]]))
    assert out._op == "sage_conv" and target not in out._parents
    shifted = conv((x, x[1:5]), np.array([[0, 5, 2], [0, 1, 3]]))
    assert shifted._parents[-1]._op == "getitem"


def test_linear_pair_refuses_what_would_not_match_its_chain():
    """Two weight shapes would give the two gemms two grains, two dtypes
    an add the chain does not run."""
    a = np.ones((4, 3), np.float32)
    w = np.ones((2, 3), np.float32)
    with pytest.raises(TypeError, match="one dtype"):
        kernels.linear_pair_forward(a, w, a.astype(np.float64), w)
    with pytest.raises(ValueError, match="one weight shape"):
        kernels.linear_pair_forward(a, w, np.ones((4, 5), np.float32), np.ones((2, 5)))
    with pytest.raises(ValueError, match="one row count"):
        kernels.linear_pair_forward(a, w, a[:3], w)
