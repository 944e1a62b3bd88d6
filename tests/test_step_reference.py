"""The lean training step against the frozen reference maths in
``reference_step.py``: losses and gradients to 1e-10 relative in float64,
the Adam update and the row scatter bit for bit."""

import numpy as np
import pytest

import reference_step as ref
from tkgc.core import scatter_add_rows
from tkgc.models import CHRONOR, TCOMPLEX, TNTCOMPLEX, ModelSpec
from tkgc.regularizers import parse_reg_spec
from tkgc.training import (
    GradientSet,
    TrainConfig,
    adam_step,
    batch_loss,
    init_state,
)

MODELS = (TCOMPLEX, TNTCOMPLEX, CHRONOR)
REGS = ("none", "N3", "N4", "L2", "linear3", "lstm", "gru")
N_ENTITIES, N_RELATIONS, N_TIMESTAMPS = 11, 6, 7


def _config(model, reg, rank=40, lambda1=0.05, tail_conjugation=True, seed=0):
    return TrainConfig(
        model=ModelSpec(model=model, rank=rank,
                        tail_conjugation=tail_conjugation),
        reg=parse_reg_spec(reg, hidden_size=min(8, rank - 1)),
        lambda1=lambda1, lambda2=0.1, seed=seed, init_scale=0.3,
    )


def _batch(rng, time_offset):
    """Random ids plus explicit repeats of a subject, object, relation and
    timestamp (and one whole repeated fact)."""
    n = 24
    batch = np.stack([
        rng.integers(0, N_ENTITIES, n),
        rng.integers(0, N_RELATIONS, n),
        rng.integers(0, N_ENTITIES, n),
        rng.integers(0, N_TIMESTAMPS, n),
    ], axis=1)
    batch[1:4, 0] = batch[0, 0]
    batch[4:7, 2] = batch[0, 2]
    batch[7:10, 1] = batch[7, 1]
    batch[10:13, 3] = time_offset
    batch[13] = batch[14]
    return batch


def _assert_step_matches(config, time_offset, seed):
    state = init_state(config, N_ENTITIES, N_RELATIONS, N_TIMESTAMPS)
    batch = _batch(np.random.default_rng(seed), time_offset)
    loss, grads = batch_loss(state.params, batch, config, time_offset)
    ref_loss, ref_grads, ref_touched = ref.batch_loss(
        state.params, batch, config, time_offset)
    assert loss == pytest.approx(ref_loss, rel=1e-10, abs=0.0)
    assert list(grads.tensors) == list(ref_grads)
    for name, expected in ref_grads.items():
        got = grads.tensors[name]
        assert got.shape == expected.shape, name
        scale = max(float(np.max(np.abs(expected))), 1e-300)
        err = float(np.max(np.abs(got - expected))) / scale
        assert err <= 1e-10, f"{name}: relative error {err:.2e}"
    assert list(grads.touched) == list(ref_touched)
    for name, rows in ref_touched.items():
        if rows is None:
            assert grads.touched[name] is None, name
        else:
            assert np.array_equal(grads.touched[name], rows), name


class TestBatchLossMatchesReference:
    @pytest.mark.parametrize("time_offset", (0, 1))
    @pytest.mark.parametrize("reg", REGS)
    @pytest.mark.parametrize("model", MODELS)
    def test_models_and_regularizers(self, model, reg, time_offset):
        _assert_step_matches(_config(model, reg), time_offset, seed=1)

    @pytest.mark.parametrize("reg", REGS)
    def test_chronor_without_tail_conjugation(self, reg):
        _assert_step_matches(
            _config(CHRONOR, reg, tail_conjugation=False), 1, seed=2)

    @pytest.mark.parametrize("model", MODELS)
    def test_narrow_rows_and_no_embedding_penalty(self, model):
        # Rank 4 gives 8-float rows, far narrower than any benchmark shape.
        _assert_step_matches(_config(model, "N4", rank=4, lambda1=0.0), 0,
                             seed=3)


class TestAdamMatchesReferenceBitwise:
    @pytest.mark.parametrize("reg", ("linear3", "gru"))
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    @pytest.mark.parametrize("model", MODELS)
    def test_dense_and_row_sparse(self, model, dtype, reg):
        # 300 x 480 entity floats span three Adam blocks, and the 200
        # touched relation rows span two.
        config = TrainConfig(
            model=ModelSpec(model=model, rank=240),
            reg=parse_reg_spec(reg), learning_rate=0.05, dtype=dtype,
        )
        state = init_state(config, 300, 400, 9)
        params = state.params.copy()
        m = {k: a.copy() for k, a in state.m.items()}
        v = {k: a.copy() for k, a in state.v.items()}
        rng = np.random.default_rng(4)
        for step, n_rows in enumerate((200, 0, 37), start=1):
            tensors = {k: rng.standard_normal(a.shape).astype(a.dtype)
                       for k, a in params.named_tensors().items()}
            touched = {k: None for k in tensors}
            rows = np.sort(rng.choice(400, size=n_rows, replace=False))
            for name in ("relation", "relation_temporal", "rotation"):
                if name in tensors:
                    touched[name] = rows
            adam_step(state, GradientSet(tensors, touched), config)
            ref.adam_step(params, m, v, step, tensors, touched, config)
            for name, expected in params.named_tensors().items():
                assert np.array_equal(
                    state.params.named_tensors()[name], expected), name
                assert np.array_equal(state.m[name], m[name]), name
                assert np.array_equal(state.v[name], v[name]), name


class TestScatterAddRows:
    @pytest.mark.parametrize("width", (1, 8, 64, 300))
    @pytest.mark.parametrize("rows", (
        [],
        [3, 3, 3, 3, 3],
        [0, 5, 2, 5, 9, 0, 0, 7],
        list(range(10)),
    ))
    def test_equals_add_at_bitwise(self, rows, width):
        rng = np.random.default_rng(5)
        rows = np.array(rows, dtype=np.int64)
        target = rng.standard_normal((10, width))
        values = rng.standard_normal((rows.size, width))
        expected = target.copy()
        np.add.at(expected, rows, values)
        scatter_add_rows(target, rows, values)
        assert np.array_equal(target, expected)

    def test_vector_values(self):
        target = np.zeros(4)
        scatter_add_rows(target, np.array([1, 1, 3]), np.array([1.0, 2.0, 4.0]))
        assert target.tolist() == [0.0, 3.0, 0.0, 4.0]

    def test_strided_target_view(self):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((6, 200))
        expected = table.copy()
        rows = np.array([4, 1, 4])
        values = rng.standard_normal((3, 100))
        np.add.at(expected[:, 50:150], rows, values)
        scatter_add_rows(table[:, 50:150], rows, values)
        assert np.array_equal(table, expected)
