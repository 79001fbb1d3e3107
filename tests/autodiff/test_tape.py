"""Flat-tape engine mechanics: dispatch, recording, lifting, backward,
threading.

Gradient *values* are covered by the golden fixture and finite
differences (``test_golden_gradients.py``); this file pins the tape's
structural contracts — what the dispatcher records when, how Tensors
are lifted onto a tape, and the thread-locality of the active-tape
stack.
"""

import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.autodiff import Tape, Tensor, Variable, apply, no_grad
from repro.autodiff.ops import get_op, registered_ops
from repro.autodiff.tape import active_tape, tape_for
from repro.autodiff.tensor import as_tensor
from repro.downstream.coevognn import CoEvoGNN, CoEvoGNNConfig
from repro.nn import GINLayer, Parameter, Time2Vec


class TestRecording:
    def test_tape_is_flat_and_ordered(self):
        with Tape() as tape:
            x = tape.leaf(np.ones(3), requires_grad=True)
            y = (x * 2.0 + 1.0).sum()
        names = [r.spec.name for r in tape.records]
        assert names == ["mul", "add", "sum"]
        assert len(tape) == 3
        # records address earlier value ids only: the tape order is
        # the topological order the backward sweep relies on
        for rec in tape.records:
            assert all(i < rec.out_id for i in rec.input_ids)
        assert isinstance(y, Variable)

    def test_constant_only_ops_record_nothing(self):
        with Tape() as tape:
            a = tape.leaf(np.ones(3))  # requires_grad=False
            out = (a * 3.0).sum()
        assert len(tape) == 0
        np.testing.assert_allclose(out.data, 9.0)

    def test_no_grad_records_nothing(self):
        with Tape() as tape:
            x = tape.leaf(np.ones(3), requires_grad=True)
            with no_grad():
                out = (x * 2.0).sum()
        assert len(tape) == 0
        assert not out.requires_grad

    def test_apply_rejects_unknown_op(self):
        with pytest.raises(KeyError):
            get_op("definitely_not_an_op")

    def test_fused_ops_are_registered(self):
        names = registered_ops()
        for fused in (
            "linear_act", "gru_cell", "gat_attention",
            "pairwise_mlp2", "pooled_mlp2", "pairwise_mixbern_loglik",
        ):
            assert fused in names


class TestLifting:
    def test_parameter_lift_dedupes(self):
        p = Parameter(np.ones(4))
        with Tape() as tape:
            a = tape.lift(p)
            b = tape.lift(p)
        assert a.vid == b.vid

    def test_leaf_grad_writes_back_to_source(self):
        p = Parameter(np.arange(3.0))
        with Tape() as tape:
            v = tape.lift(p)
            loss = (v * v).sum()
            loss.backward()
        np.testing.assert_allclose(p.grad, 2.0 * np.arange(3.0))

    def test_backward_accumulates_across_calls(self):
        p = Parameter(np.ones(2))
        with Tape() as tape:
            loss = (tape.lift(p) * 3.0).sum()
            loss.backward()
            loss.backward()
        np.testing.assert_allclose(p.grad, 6.0 * np.ones(2))

    def test_mixed_parameter_and_variable_expression(self):
        """``p * 2.0`` inside a tape records there, so it combines with
        a lifted Variable and both leaves get exact grads."""
        p = Parameter(np.array([1.0, -2.0, 3.0]))
        q = Parameter(np.array([0.5, 0.25, 4.0]))
        with Tape() as tape:
            loss = ((p * 2.0) + tape.lift(q)).sum()
            loss.backward()
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(q.grad, np.ones(3))

    def test_cross_tape_mixing_is_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError, match="different tapes"):
            t2.lift(a)

    def test_as_tensor_rejects_variables(self):
        with Tape() as tape:
            v = tape.leaf(np.ones(2), requires_grad=True)
            with pytest.raises(TypeError, match="detach"):
                as_tensor(v)

    def test_detach_cuts_from_tape(self):
        with Tape() as tape:
            v = tape.leaf(np.ones(2), requires_grad=True)
            t = v.detach()
        assert isinstance(t, Tensor) and not t.requires_grad


class TestMixedEngine:
    def test_tensor_op_variable_promotes_to_variable(self):
        p = Parameter(np.ones(3))
        c = Tensor(np.full(3, 2.0))
        with Tape() as tape:
            v = tape.lift(p)
            for mixed in (c * v, v * c, c + v, v - c, c / v, v @ np.ones(3)):
                assert isinstance(mixed, Variable)

    def test_numpy_defers_to_variable(self):
        with Tape() as tape:
            v = tape.leaf(np.ones(3), requires_grad=True)
            out = np.full(3, 2.0) * v
        assert isinstance(out, Variable)
        np.testing.assert_allclose(out.data, 2.0)


class TestRouting:
    def test_no_active_tape_routes_nowhere(self):
        assert tape_for() is None
        assert active_tape() is None

    def test_active_tape_routes_when_grad_enabled(self):
        with Tape() as tape:
            assert tape_for() is tape
            with no_grad():
                assert tape_for() is None

    def test_variable_argument_wins(self):
        t1 = Tape()
        v = t1.leaf(np.ones(2), requires_grad=True)
        with Tape():
            assert tape_for(v) is t1

    def test_tapes_nest(self):
        with Tape() as outer:
            with Tape() as inner:
                assert active_tape() is inner
            assert active_tape() is outer

    def test_active_tape_is_thread_local(self):
        seen = {}

        def worker():
            seen["worker_tape"] = active_tape()
            with Tape() as wt:
                seen["worker_inner"] = active_tape() is wt

        with Tape() as tape:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert active_tape() is tape
        assert seen["worker_tape"] is None
        assert seen["worker_inner"] is True


class TestDispatcher:
    def test_without_a_tape_apply_is_a_forward_call(self):
        out = apply("mul", (Tensor(np.array([1.0, 2.0]), requires_grad=True), 3.0))
        assert type(out) is Tensor and not out.requires_grad
        np.testing.assert_array_equal(out.data, [3.0, 6.0])

    def test_inside_a_tape_apply_records(self):
        p = Parameter(np.ones(2))
        with Tape() as tape:
            out = apply("mul", (p, 3.0))
        assert isinstance(out, Variable) and out.tape is tape
        assert [r.spec.name for r in tape.records] == ["mul"]

    def test_tape_for_is_called_only_by_the_dispatcher(self):
        src = Path(repro.__file__).parent
        callers = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "tape_for(" in path.read_text()
        )
        assert callers == ["autodiff/tape.py"]
        text = (src / "autodiff" / "tape.py").read_text()
        # the definition plus the one call inside apply()
        assert text.count("tape_for(") == 2


def _gin_case(tape):
    rng = np.random.default_rng(0)
    gin = GINLayer(3, 2, rng=rng)
    adj = (rng.random((4, 4)) < 0.5).astype(float)
    h = tape.leaf(rng.normal(size=(4, 3)), requires_grad=True)
    return gin.epsilon, lambda: gin(h, adj).sum()


def _time2vec_case(tape):
    t2v = Time2Vec(3, rng=np.random.default_rng(0))
    h = tape.leaf(np.ones(3), requires_grad=True)
    return t2v.w, lambda: (t2v(2.0) * h).sum()


def _link_logits_case(tape):
    rng = np.random.default_rng(0)
    model = CoEvoGNN(CoEvoGNNConfig(num_nodes=4, num_attributes=1,
                                    hidden_dim=3))
    h = tape.leaf(rng.normal(size=(4, 3)), requires_grad=True)
    pairs = np.array([[0, 1], [2, 3], [1, 1]])
    prev_adj = np.eye(4)
    return (model.repeat_weight,
            lambda: model.link_logits(h, pairs, prev_adj).sum())


class TestRecordingNeedsAnActiveTape:
    """A Variable of a tape whose ``with`` block has exited must not
    record: parameter-only subexpressions (``1.0 + epsilon``) route to
    the active tape only, so their gradients would silently vanish."""

    @pytest.mark.parametrize(
        "case", [_gin_case, _time2vec_case, _link_logits_case],
        ids=["gin", "time2vec", "link_logits"],
    )
    def test_exited_tape_raises_and_with_block_records(self, case):
        param, loss = case(Tape())
        with pytest.raises(RuntimeError, match="with tape"):
            loss()
        assert param.grad is None
        with Tape() as tape:
            param, loss = case(tape)
            loss().backward()
        assert param.grad is not None and np.any(param.grad != 0)

    def test_outer_tape_records_inside_a_nested_one(self):
        with Tape() as outer:
            x = outer.leaf(np.ones(2), requires_grad=True)
            with Tape() as inner:
                y = (x * 3.0).sum()
            assert len(inner) == 0 and len(outer) == 2
            y.backward()

    def test_tape_active_on_another_thread_raises(self):
        errors = []
        with Tape() as tape:
            x = tape.leaf(np.ones(2), requires_grad=True)

            def worker():
                try:
                    x * 2.0
                except RuntimeError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert len(errors) == 1


class TestBackwardValidation:
    def test_nonscalar_backward_needs_explicit_grad(self):
        with Tape() as tape:
            v = tape.leaf(np.ones(3), requires_grad=True) * 2.0
            with pytest.raises(ValueError, match="scalar"):
                v.backward()
            v.backward(np.ones(3))

    def test_grad_shape_mismatch_raises(self):
        with Tape() as tape:
            v = tape.leaf(np.ones(3), requires_grad=True) * 2.0
            with pytest.raises(ValueError, match="shape"):
                v.backward(np.ones(4))

    def test_no_path_gives_no_grad(self):
        p = Parameter(np.ones(2))
        q = Parameter(np.ones(2))
        with Tape() as tape:
            v = tape.lift(p)
            tape.lift(q)  # on the tape but not in the graph
            v.sum().backward()
        np.testing.assert_allclose(tape.grad(p), np.ones(2))
        np.testing.assert_allclose(p.grad, np.ones(2))
        assert tape.grad(q) is None
        assert q.grad is None

    def test_grad_is_none_before_backward(self):
        p = Parameter(np.ones(2))
        with Tape() as tape:
            v = tape.lift(p)
            loss = (v * v).sum()
            assert tape.grad(p) is None
            assert v.grad is None
            loss.backward()
        np.testing.assert_allclose(tape.grad(p), 2.0 * np.ones(2))

    def test_grad_addresses_tensor_and_variable_alike(self):
        p = Parameter(np.arange(1.0, 4.0))
        with Tape() as tape:
            v = tape.lift(p)
            (v * v).sum().backward()
        np.testing.assert_allclose(tape.grad(p), 2.0 * np.arange(1.0, 4.0))
        np.testing.assert_array_equal(tape.grad(v), tape.grad(p))
        np.testing.assert_array_equal(v.grad, tape.grad(p))

    def test_grad_rejects_foreign_variable_and_unlifted_tensor(self):
        p = Parameter(np.ones(2))
        with Tape() as other:
            foreign = other.leaf(np.ones(2), requires_grad=True)
        with Tape() as tape:
            v = tape.lift(p)
            v.sum().backward()
        with pytest.raises(RuntimeError, match="different tape"):
            tape.grad(foreign)
        with pytest.raises(KeyError, match="never lifted"):
            tape.grad(Parameter(np.ones(2)))
