"""Convolution layers: hand-computed values and gradient flow."""

import numpy as np
import pytest

from repro.models import GATConv, GINConv, SAGEConv
from repro.nn import Linear, ReLU, Sequential
from repro.sampling import Adj
from repro.tensor import Tensor


def bipartite_case():
    """3 sources (targets are the first 2), 3 edges: 0->0, 2->0, 1->1."""
    x_src = Tensor(
        np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]], dtype=np.float32),
        requires_grad=True,
    )
    x_dst = x_src[:2]
    edge_index = np.array([[0, 2, 1], [0, 0, 1]])
    return x_src, x_dst, edge_index


class TestSAGEConv:
    def test_mean_aggregation_value(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        conv = SAGEConv(2, 2, rng=rng)
        # identity weights isolate the aggregation arithmetic
        conv.lin_neigh.weight.data[...] = np.eye(2)
        conv.lin_root.weight.data[...] = np.eye(2)
        out = conv((x_src, x_dst), edge_index).data
        # target 0: mean of src 0 and 2 = (2.0, 0.5); plus root (1, 0)
        np.testing.assert_allclose(out[0], [3.0, 0.5], rtol=1e-6)
        # target 1: mean of src 1 = (0, 2); plus root (0, 2)
        np.testing.assert_allclose(out[1], [0.0, 4.0], rtol=1e-6)

    def test_sum_and_max_aggregators(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        for aggr, expected0 in (("sum", [4.0, 1.0]), ("max", [3.0, 1.0])):
            conv = SAGEConv(2, 2, aggregator=aggr, rng=rng)
            conv.lin_neigh.weight.data[...] = np.eye(2)
            conv.lin_root.weight.data[...] = 0.0
            out = conv((x_src, x_dst), edge_index).data
            np.testing.assert_allclose(out[0], expected0, rtol=1e-6)

    def test_node_without_edges_gets_root_only(self, rng):
        x_src, x_dst, _ = bipartite_case()
        edge_index = np.array([[0], [0]])  # target 1 receives nothing
        conv = SAGEConv(2, 2, rng=rng)
        conv.lin_neigh.weight.data[...] = np.eye(2)
        conv.lin_root.weight.data[...] = np.eye(2)
        out = conv((x_src, x_dst), edge_index).data
        np.testing.assert_allclose(out[1], x_dst.data[1], rtol=1e-6)

    def test_gradients_reach_inputs_and_weights(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        conv = SAGEConv(2, 3, rng=rng)
        conv((x_src, x_dst), edge_index).sum().backward()
        assert x_src.grad is not None
        assert conv.lin_neigh.weight.grad is not None
        assert conv.lin_root.weight.grad is not None

    def test_rejects_unknown_aggregator(self):
        with pytest.raises(ValueError):
            SAGEConv(2, 2, aggregator="median")

    def test_rejects_out_of_range_edges(self, rng):
        x_src, x_dst, _ = bipartite_case()
        conv = SAGEConv(2, 2, rng=rng)
        with pytest.raises(ValueError):
            conv((x_src, x_dst), np.array([[0], [5]]))
        with pytest.raises(ValueError):
            conv((x_src, x_dst), np.array([[9], [0]]))
        # An Adj's edges were checked against its own size where it was
        # built: a source set wider than x_src is refused even when every
        # edge fits.
        indptr, indices = np.array([0, 2, 3]), np.array([0, 2, 1])
        with pytest.raises(ValueError, match="source"):
            conv((x_src, x_dst), Adj(indptr, indices, (5, 2)))


class TestGATConv:
    def test_attention_weights_normalized(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        conv = GATConv(2, 4, rng=rng)
        out = conv((x_src, x_dst), edge_index)
        assert out.shape == (2, 4)

    def test_uniform_attention_reduces_to_mean_with_self_loop(self, rng):
        """Zero attention vectors -> uniform weights over {neighbors, self}."""
        x_src, x_dst, edge_index = bipartite_case()
        conv = GATConv(2, 2, rng=rng)
        conv.lin.weight.data[...] = np.eye(2)
        conv.att_src.data[...] = 0.0
        conv.att_dst.data[...] = 0.0
        out = conv((x_src, x_dst), edge_index).data
        # target 0: mean over {src0, src2, self0} = ((1+3+1)/3, (0+1+0)/3)
        np.testing.assert_allclose(out[0], [5 / 3, 1 / 3], rtol=1e-5)
        # target 1: mean over {src1, self1} = (0, 2)
        np.testing.assert_allclose(out[1], [0.0, 2.0], rtol=1e-5)

    def test_gradients_flow_through_attention(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        conv = GATConv(2, 3, rng=rng)
        conv((x_src, x_dst), edge_index).sum().backward()
        assert conv.att_src.grad is not None
        assert conv.att_dst.grad is not None
        assert x_src.grad is not None

    def test_multi_head_output_concatenates(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        conv = GATConv(2, 3, heads=4, rng=rng)
        out = conv((x_src, x_dst), edge_index)
        assert out.shape == (2, 12)

    def test_multi_head_gradients_flow(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        conv = GATConv(2, 3, heads=2, rng=rng)
        conv((x_src, x_dst), edge_index).sum().backward()
        assert conv.att_src.grad is not None
        assert conv.att_src.grad.shape == (2, 3)
        assert x_src.grad is not None

    def test_multi_head_uniform_attention_is_stacked_means(self, rng):
        """With zero attention vectors every head reduces to the neighbor
        mean of its own channel slice."""
        x_src, x_dst, edge_index = bipartite_case()
        conv = GATConv(2, 2, heads=2, rng=rng)
        conv.lin.weight.data[...] = np.vstack([np.eye(2), np.eye(2)])
        conv.att_src.data[...] = 0.0
        conv.att_dst.data[...] = 0.0
        out = conv((x_src, x_dst), edge_index).data
        np.testing.assert_allclose(out[:, :2], out[:, 2:], rtol=1e-5)
        np.testing.assert_allclose(out[0, :2], [5 / 3, 1 / 3], rtol=1e-5)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            GATConv(2, 2, heads=0)

    def test_isolated_target_attends_to_itself(self, rng):
        x_src, x_dst, _ = bipartite_case()
        conv = GATConv(2, 2, rng=rng)
        conv.lin.weight.data[...] = np.eye(2)
        conv.att_src.data[...] = 0.0
        conv.att_dst.data[...] = 0.0
        out = conv((x_src, x_dst), np.empty((2, 0), dtype=np.int64)).data
        np.testing.assert_allclose(out, x_dst.data, rtol=1e-5)


class TestGINConv:
    def make_identity_mlp(self):
        lin = Linear(2, 2, bias=False)
        lin.weight.data[...] = np.eye(2)
        return Sequential(lin)

    def test_sum_aggregation_plus_eps_scaled_self(self):
        x_src, x_dst, edge_index = bipartite_case()
        conv = GINConv(self.make_identity_mlp(), eps=0.0)
        out = conv((x_src, x_dst), edge_index).data
        # target 0: sum(src0, src2) + self = (4,1)+(1,0)
        np.testing.assert_allclose(out[0], [5.0, 1.0], rtol=1e-6)

    def test_eps_scales_self_term(self):
        x_src, x_dst, edge_index = bipartite_case()
        conv = GINConv(self.make_identity_mlp(), eps=1.0)
        out = conv((x_src, x_dst), edge_index).data
        np.testing.assert_allclose(out[0], [4.0 + 2.0, 1.0 + 0.0], rtol=1e-6)

    def test_mlp_is_applied(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        mlp = Sequential(Linear(2, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng))
        conv = GINConv(mlp)
        out = conv((x_src, x_dst), edge_index)
        assert out.shape == (2, 3)

    def test_gradients_reach_mlp(self, rng):
        x_src, x_dst, edge_index = bipartite_case()
        mlp = Sequential(Linear(2, 4, rng=rng))
        conv = GINConv(mlp)
        conv((x_src, x_dst), edge_index).sum().backward()
        assert mlp[0].weight.grad is not None
