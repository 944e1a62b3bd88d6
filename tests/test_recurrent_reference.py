"""The stacked-gate recurrence against the frozen per-gate loop in
``reference_recurrent``: same table, same gradients, same dtype."""

import numpy as np
import pytest

import reference_recurrent as ref
from tkgc.regularizers import (
    RECURRENT_VARIANTS,
    _recurrent_forward,
    _sigmoid,
    init_recurrent,
    recurrent_generate_backward,
)

OUT = 6


def _instance(variant, hidden, count, dtype=np.float64):
    rng = np.random.default_rng(hidden * 1000 + count)
    params = init_recurrent(variant, hidden, OUT, rng, scale=0.3, dtype=dtype)
    grad_table = rng.standard_normal((count, OUT)).astype(dtype)
    return params, grad_table


@pytest.mark.parametrize("count", [0, 1, 7, 257])
@pytest.mark.parametrize("hidden", [1, 3, 8])
@pytest.mark.parametrize("variant", RECURRENT_VARIANTS)
def test_matches_frozen_reference(variant, hidden, count):
    params, grad_table = _instance(variant, hidden, count)
    table, cache = _recurrent_forward(params, count)
    want_table, want_cache = ref._recurrent_forward(params, count)
    assert table.shape == want_table.shape == (count, OUT)
    scale = max(float(np.abs(want_table).max(initial=0.0)), 1e-300)
    assert np.abs(table - want_table).max(initial=0.0) <= 1e-13 * scale

    grads = recurrent_generate_backward(params, cache, grad_table)
    want = ref.recurrent_generate_backward(params, want_cache, grad_table)
    assert list(grads) == list(want) == params.tensor_names()
    for name, expected in want.items():
        assert grads[name].shape == expected.shape, name
        bound = 1e-12 * float(np.abs(expected).max(initial=0.0))
        err = float(np.abs(grads[name] - expected).max(initial=0.0))
        assert err <= bound, f"{variant} {name}: {err:.3g} > {bound:.3g}"


@pytest.mark.parametrize("variant", RECURRENT_VARIANTS)
def test_float32_stays_float32(variant):
    params, grad_table = _instance(variant, 3, 7, dtype=np.float32)
    table, cache = _recurrent_forward(params, 7)
    assert table.dtype == np.float32
    grads = recurrent_generate_backward(params, cache, grad_table)
    for name, grad in grads.items():
        assert grad.dtype == np.float32, name


def test_sigmoid_bitwise_equal_to_masked_form():
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 710.0, -710.0,
                  np.inf, -np.inf, np.nan])
    for dtype in (np.float64, np.float32):
        with np.errstate(over="ignore", under="ignore"):
            got, want = _sigmoid(x.astype(dtype)), ref._sigmoid(x.astype(dtype))
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
