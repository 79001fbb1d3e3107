"""The finite-difference checker itself: catches wrong gradients,
passes correct ones."""

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor, apply, functional as F, gradcheck
from repro.autodiff import ops
from repro.nn import Parameter


class TestGradcheckPasses:
    def test_expression_on_parameters(self):
        """``fn`` needs no tape of its own: gradcheck records it."""
        p = Parameter(np.array([0.3, -1.2, 0.7]))

        def fn():
            return (F.sigmoid(p * 2.0) ** 2).sum()

        assert gradcheck(fn, [p])

    def test_fn_with_its_own_tape(self):
        p = Parameter(np.array([0.3, -1.2, 0.7]))

        def fn():
            with Tape() as tape:
                v = tape.lift(p)
                return (F.sigmoid(v * 2.0) ** 2).sum()

        assert gradcheck(fn, [p])

    def test_multiple_params(self):
        rng = np.random.default_rng(5)
        w = Parameter(rng.normal(size=(3, 2)))
        b = Parameter(rng.normal(size=(2,)))
        x = rng.normal(size=(4, 3))

        def fn():
            return (F.tanh(Tensor(x) @ w + b) ** 2).mean()

        assert gradcheck(fn, [w, b])

    def test_max_entries_subsamples(self):
        p = Parameter(np.linspace(-1, 1, 50))

        def fn():
            return (p ** 2).sum()

        assert gradcheck(fn, [p], max_entries=5)


class TestGradcheckCatchesBugs:
    def test_wrong_backward_is_flagged(self, monkeypatch):
        p = Parameter(np.array([0.5, 1.5]))

        # deliberately broken VJP: claims d(sum 2p)/dp = 3
        monkeypatch.setitem(ops._REGISTRY, "test_broken_sum2", ops.OpSpec(
            "test_broken_sum2",
            lambda a: (np.asarray(np.sum(2.0 * a)), None),
            lambda g, inputs, res: (3.0 * np.ones_like(inputs[0]) * g,),
        ))

        def fn():
            return apply("test_broken_sum2", (p,))

        with pytest.raises(AssertionError, match="gradcheck failed"):
            gradcheck(fn, [p])

    def test_missing_gradient_is_flagged(self):
        p = Parameter(np.array([0.5, 1.5]))

        def fn():
            # loss depends on p but p never enters the graph
            return Tensor(np.asarray(float((p.data ** 2).sum())))

        with pytest.raises(AssertionError, match="gradcheck failed"):
            gradcheck(fn, [p])
