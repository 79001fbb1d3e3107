"""Bi-flow encoder tests (Eq. 5–7)."""

import numpy as np
import pytest

from repro.autodiff import Tape
from repro.core import BiFlowEncoder


@pytest.fixture
def encoder(rng):
    return BiFlowEncoder(
        num_attributes=2, hidden_dim=8, encode_dim=6, num_layers=2, rng=rng
    )


class TestBiFlowEncoder:
    def test_output_shape(self, encoder, tiny_snapshot):
        out = encoder(tiny_snapshot.adjacency, tiny_snapshot.attributes)
        assert out.shape == (12, 6)

    def test_initial_features_include_degrees(self, encoder, tiny_snapshot):
        feats = encoder.initial_features(
            tiny_snapshot.adjacency, tiny_snapshot.attributes
        )
        assert feats.shape == (12, 4)  # 2 attrs + in/out degree
        np.testing.assert_allclose(
            feats[:, 2] * 11, tiny_snapshot.in_degrees()
        )

    def test_direction_sensitivity(self, rng):
        """A directed edge reversal must change the encoding (bi-flow)."""
        enc = BiFlowEncoder(0, 8, 6, rng=rng)
        adj = np.zeros((4, 4))
        adj[0, 1] = 1.0
        no_attrs = np.zeros((4, 0))
        fwd = enc(adj, no_attrs).data
        rev = enc(adj.T.copy(), no_attrs).data
        assert not np.allclose(fwd, rev)

    def test_unidirectional_ablation_ignores_in_flow(self, rng):
        """With bidirectional=False only out-neighbourhoods matter."""
        enc = BiFlowEncoder(0, 8, 6, bidirectional=False, rng=rng)
        # node 3 has only an incoming edge: invisible to a pure out-flow
        # encoding of node 3 beyond degree features
        adj1 = np.zeros((4, 4))
        adj1[0, 3] = 1.0
        adj2 = np.zeros((4, 4))
        adj2[1, 3] = 1.0
        out1 = enc(adj1, np.zeros((4, 0))).data
        out2 = enc(adj2, np.zeros((4, 0))).data
        # node 2 (untouched, no degree change) identical in both
        np.testing.assert_allclose(out1[2], out2[2], atol=1e-9)

    def test_attribute_sensitivity(self, encoder, tiny_snapshot):
        adj = tiny_snapshot.adjacency
        base = encoder(adj, tiny_snapshot.attributes).data
        mod = tiny_snapshot.attributes.copy()
        mod[0] += 5.0
        out = encoder(adj, mod).data
        assert not np.allclose(base[0], out[0])

    def test_gradients_reach_all_parameters(self, encoder, tiny_snapshot):
        with Tape():
            encoder(
                tiny_snapshot.adjacency, tiny_snapshot.attributes
            ).sum().backward()
        grads = [p.grad is not None for _, p in encoder.named_parameters()]
        # in-flows, out-flows, aggregator, pool and input proj all used
        assert all(grads)

    def test_empty_graph_finite(self, encoder):
        out = encoder(np.zeros((5, 5)), np.zeros((5, 2)))
        assert np.all(np.isfinite(out.data))

    def test_jump_connection_uses_all_hops(self, rng):
        enc = BiFlowEncoder(0, 4, 4, num_layers=3, rng=rng)
        assert enc.pool.layers[0].in_features == 3 * 4
