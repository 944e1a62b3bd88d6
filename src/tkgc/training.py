"""Objective assembly, analytic gradients, Adam, the training loop, and grid
search.

The per-batch objective is

    mean_b [ -score(b) + logsumexp over all objects + lambda1 * n3(b) ]
        + lambda2 * temporal_penalty(timestamp table)

with the temporal term added once per batch (it depends only on the timestamp
table, not on the examples).  Gradients are exact analytic derivatives of this
scalar for every trainable tensor; `gradient_check` compares them against
central finite differences.

In recurrent-generator mode the chronological timestamp rows are a function
of the generator parameters: each forward pass rebuilds them, their gradient
is backpropagated through the unrolled recurrence, and there is no additive
temporal penalty (``lambda2`` is unused).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    DatasetSplits,
    cmul,
    complex_moduli,
    rng_stream,
    row_blocks,
    scatter_add_rows,
)
from .datasets import build_filter_index
from .evaluation import Metrics, evaluate
from .models import (
    ModelParams,
    ModelSpec,
    _TABLES,
    _check_ids,
    _cmul_conj,
    init_params,
    relation_factor,
    relation_factor_backward,
    tail_matrix,
)
from .regularizers import (
    TemporalRegSpec,
    _recurrent_forward,
    init_recurrent,
    n3_terms,
    n3_terms_grad,
    parse_reg_spec,
    recurrent_generate,
    recurrent_generate_backward,
    temporal_penalty_grad,
)


class NonFiniteLossError(RuntimeError):
    """Raised when the loss stops being finite; names the offending tensor."""


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    reg: TemporalRegSpec = TemporalRegSpec(family="none")
    lambda1: float = 0.0
    lambda2: float = 0.0
    learning_rate: float = 0.1
    batch_size: int = 1000
    epochs: int = 50
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    eval_every: int = 0
    init_scale: float = 1e-2
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("regularization weights must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epoch count must be >= 0")
        if self.reg.family == "recurrent":
            if self.reg.hidden_size >= self.model.rank:
                raise ValueError(
                    "recurrent hidden size must be smaller than the rank"
                )
            if self.model.time_rank == 0:
                raise ValueError("recurrent generator needs a time block")


@dataclass
class GradientSet:
    """Dense gradient arrays per trainable tensor, plus the set of rows each
    gradient actually touches (None = every row)."""

    tensors: dict[str, np.ndarray]
    touched: dict[str, Optional[np.ndarray]]


@dataclass
class TrainState:
    params: ModelParams
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    epoch_losses: list[float] = field(default_factory=list)
    valid_history: list[tuple[int, float]] = field(default_factory=list)
    best_params: Optional[ModelParams] = None
    best_valid_mrr: float = -math.inf
    best_epoch: int = -1


def init_state(
    config: TrainConfig, n_entities: int, n_relations: int, n_timestamps: int
) -> TrainState:
    """Fresh parameters plus zeroed Adam moments.

    All draws come from the "init" sub-stream of the config seed: model tables
    first, auxiliary regularizer parameters after, so table values do not
    depend on which regularizer is configured.
    """
    dtype = np.dtype(config.dtype)
    rng = rng_stream(config.seed, "init")
    params = init_params(
        config.model, n_entities, n_relations, n_timestamps,
        seed=config.seed, scale=config.init_scale, dtype=dtype, rng=rng,
    )
    width = 2 * config.model.time_rank
    if config.reg.family == "linear3":
        params.linear3_bias = (
            config.init_scale * rng.standard_normal(width)
        ).astype(dtype)
    elif config.reg.family == "recurrent":
        params.recurrent = init_recurrent(
            config.reg.variant, config.reg.hidden_size, width, rng,
            scale=config.init_scale, dtype=dtype,
        )
    moments_m = {k: np.zeros_like(a) for k, a in params.named_tensors().items()}
    moments_v = {k: np.zeros_like(a) for k, a in params.named_tensors().items()}
    return TrainState(params=params, m=moments_m, v=moments_v)


def materialize_timestamps(params: ModelParams, time_offset: int = 0) -> None:
    """Overwrite the chronological timestamp rows with the generator output
    (no-op for models without a recurrent generator)."""
    if params.recurrent is None:
        return
    count = params.n_timestamps - time_offset
    params.timestamp[time_offset:] = recurrent_generate(
        params.recurrent, count
    ).astype(params.dtype)


def _find_nonfinite(
    params: ModelParams, q: np.ndarray, tails: np.ndarray
) -> str:
    name = params.first_nonfinite()
    if name is not None:
        return name
    # Recomputed: the step overwrites its score matrix with the gradient.
    if not np.all(np.isfinite(q @ tails.T)):
        return "scores"
    return "loss"


def _softmax_cross_entropy(
    scores: np.ndarray, objects: np.ndarray
) -> np.ndarray:
    """Per-row multi-class loss ``logsumexp(scores) - scores[object]``.

    Overwrites ``scores``, one block of rows at a time, with the gradient of
    the mean loss, ``(softmax - onehot(objects)) / n``: the exponentials
    summed for the log-sum-exp become the softmax.
    """
    n = scores.shape[0]
    losses = -scores[np.arange(n), objects]
    for rows in row_blocks(scores.shape):
        block = scores[rows]
        peak = block.max(axis=1, keepdims=True)
        block -= peak
        np.exp(block, out=block)
        total = block.sum(axis=1, keepdims=True)
        losses[rows] += peak[:, 0] + np.log(total[:, 0])
        block /= total
        block[np.arange(block.shape[0]), objects[rows]] -= 1.0
        block /= n
    return losses


def batch_loss(
    params: ModelParams,
    batch: np.ndarray,
    config: TrainConfig,
    time_offset: int = 0,
    compute_grads: bool = True,
) -> tuple[float, Optional[GradientSet]]:
    """Mean multi-class loss over a batch plus both regularizers, with exact
    analytic gradients for every tensor the batch touches."""
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != 4 or batch.shape[0] == 0:
        raise ValueError("batch must be a non-empty (n, 4) id array")
    subjects = _check_ids(batch[:, 0], params.n_entities, "entity")
    objects = _check_ids(batch[:, 2], params.n_entities, "entity")
    n = batch.shape[0]
    reg = config.reg
    recurrent = reg.family == "recurrent"

    gen_cache = None
    if recurrent:
        generated, gen_cache = _recurrent_forward(
            params.recurrent, params.n_timestamps - time_offset
        )
        time_table = params.timestamp.copy()
        time_table[time_offset:] = generated
    else:
        time_table = params.timestamp

    v, vcache = relation_factor(params, batch[:, 1], batch[:, 3], time_table)
    heads = params.entity[subjects]
    q = cmul(heads, v)
    tails = tail_matrix(params)
    g_scores = q @ tails.T
    loss_fit = float(np.mean(_softmax_cross_entropy(g_scores, objects)))

    loss_emb = 0.0
    if config.lambda1 != 0.0:
        n3_factors = (heads, v, params.entity[objects])
        n3_moduli = [complex_moduli(f) for f in n3_factors]
        terms = [n3_terms(m) for m in n3_moduli]
        loss_emb = config.lambda1 * float(
            np.mean(terms[0] + terms[1] + terms[2])
        )

    additive = reg.family in ("N", "L", "linear3") and config.lambda2 != 0.0
    chrono = time_table[time_offset:]
    penalty, g_chrono, g_bias = 0.0, None, None
    if additive:
        penalty, g_chrono, g_bias = temporal_penalty_grad(
            chrono, reg, bias=params.linear3_bias, complex_pairs=True
        )

    loss = loss_fit + loss_emb + config.lambda2 * penalty
    if not np.isfinite(loss):
        raise NonFiniteLossError(
            f"non-finite loss; first offending tensor: "
            f"{_find_nonfinite(params, q, tails)}"
        )
    if not compute_grads:
        return loss, None

    g_entity = g_scores.T @ q
    if not params.spec.tail_conjugation:
        g_entity[:, params.spec.rank:] *= -1.0
    g_q = g_scores @ tails
    del g_scores  # release the (n, |E|) matrix before the row-sized work
    g_heads = _cmul_conj(g_q, v)
    g_v = _cmul_conj(g_q, heads)
    if config.lambda1 != 0.0:
        coef = config.lambda1 / n
        g_n3 = [n3_terms_grad(f, coef * m)
                for f, m in zip(n3_factors, n3_moduli)]
        g_heads += g_n3[0]
        g_v += g_n3[1]
        scatter_add_rows(g_entity, objects, g_n3[2])
    scatter_add_rows(g_entity, subjects, g_heads)

    grads = {
        name: g_entity if name == "entity" else np.zeros_like(arr)
        for name, arr in params.named_tensors().items()
    }
    g_time = np.zeros_like(time_table) if recurrent else grads["timestamp"]
    relation_factor_backward(params, vcache, g_v, grads, g_time)
    if additive:
        g_time[time_offset:] += config.lambda2 * g_chrono
        if g_bias is not None:
            grads["linear3_bias"] += config.lambda2 * g_bias

    if recurrent:
        rnn_grads = recurrent_generate_backward(
            params.recurrent, gen_cache, g_time[time_offset:]
        )
        for name, arr in rnn_grads.items():
            grads[f"rnn.{name}"] += arr
        grads["timestamp"][:time_offset] = g_time[:time_offset]

    touched: dict[str, Optional[np.ndarray]] = {name: None for name in grads}
    relation_rows = np.unique(batch[:, 1])
    for name, rows, _ in _TABLES[params.spec.model]:
        if rows == "R":
            touched[name] = relation_rows
    if recurrent:
        touched["timestamp"] = np.arange(time_offset)
    elif not additive:
        touched["timestamp"] = np.unique(batch[:, 3])
    return loss, GradientSet(tensors=grads, touched=touched)


def _adam_update(
    param: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
    config: TrainConfig, bc1: float, bc2: float,
    rows: Optional[np.ndarray] = None,
) -> None:
    """In-place Adam update of ``param`` and its moments ``m``, ``v``, on
    every row or only on the (unique) ``rows``:

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        param -= lr (m / bc1) / (sqrt(v / bc2) + eps)

    The update runs over cache-sized blocks of rows, gathered first when
    ``rows`` is given, with the operations of these whole-array expressions
    in their order: the result is bitwise the same, without full-size
    temporaries.
    """
    b1, b2 = config.beta1, config.beta2
    n = param.shape[0] if rows is None else rows.size
    scratch = None
    for block in row_blocks((n,) + param.shape[1:]):
        index = block if rows is None else rows[block]
        p, mb, vb, gb = param[index], m[index], v[index], g[index]
        if scratch is None:
            scratch = np.empty((2,) + p.shape, p.dtype)
        t, u = scratch[0, : len(p)], scratch[1, : len(p)]
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=t)
        mb += t
        vb *= b2
        np.multiply(gb, gb, out=t)
        t *= 1.0 - b2
        vb += t
        np.divide(vb, bc2, out=t)
        np.sqrt(t, out=t)
        t += config.epsilon
        np.divide(mb, bc1, out=u)
        u *= config.learning_rate
        u /= t
        p -= u
        if rows is not None:
            param[index], m[index], v[index] = p, mb, vb


def adam_step(
    state: TrainState, grads: GradientSet, config: TrainConfig
) -> TrainState:
    """One Adam update with bias correction.

    Row-sparse tensors advance moments only for the rows the batch touched;
    tensors with dense gradients (entity table via the softmax, timestamp
    table under an additive temporal penalty, auxiliary parameters) update in
    full.
    """
    state.step += 1
    bc1 = 1.0 - config.beta1 ** state.step
    bc2 = 1.0 - config.beta2 ** state.step
    for name, param in state.params.named_tensors().items():
        g = grads.tensors[name]
        if g.shape != param.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match {name} {param.shape}"
            )
        _adam_update(param, state.m[name], state.v[name], g, config, bc1, bc2,
                     rows=grads.touched.get(name))
    return state


# ---------------------------------------------------------------------------
# Finite-difference verification.
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    n_coordinates: int
    tolerance: float
    step: float
    worst: tuple[str, int, float, float]  # tensor, flat index, analytic, numeric

    def __str__(self) -> str:
        name, idx, analytic, numeric = self.worst
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max relative error {self.max_rel_error:.3e} over "
            f"{self.n_coordinates} coordinates (tol {self.tolerance:.1e}); "
            f"worst at {name}[{idx}]: analytic {analytic:.6e} vs "
            f"numeric {numeric:.6e}"
        )


def gradient_check(
    params: ModelParams,
    batch: np.ndarray,
    config: TrainConfig,
    step: float = 1e-5,
    tolerance: float = 1e-5,
    coords_per_tensor: int = 4,
    time_offset: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences on a
    random subset of coordinates of every trainable tensor.

    The error for a coordinate is |analytic - numeric| / max(1, |analytic|,
    |numeric|): relative for large gradients, absolute near zero.  Requires
    double precision.
    """
    if params.dtype != np.float64:
        raise ValueError("gradient_check requires float64 parameters")
    if rng is None:
        rng = rng_stream(config.seed, "gradcheck")
    _, grads = batch_loss(params, batch, config, time_offset)
    max_err = -1.0
    checked = 0
    worst = ("", 0, 0.0, 0.0)
    for name, tensor in params.named_tensors().items():
        flat = tensor.reshape(-1)
        k = min(coords_per_tensor, flat.size)
        if k == 0:
            continue
        for idx in rng.choice(flat.size, size=k, replace=False):
            original = flat[idx]
            flat[idx] = original + step
            up, _ = batch_loss(params, batch, config, time_offset,
                               compute_grads=False)
            flat[idx] = original - step
            down, _ = batch_loss(params, batch, config, time_offset,
                                 compute_grads=False)
            flat[idx] = original
            numeric = (up - down) / (2.0 * step)
            analytic = grads.tensors[name].reshape(-1)[idx]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            checked += 1
            if err > max_err:
                max_err = err
                worst = (name, int(idx), float(analytic), float(numeric))
    return GradCheckReport(
        passed=max_err <= tolerance,
        max_rel_error=max_err,
        n_coordinates=checked,
        tolerance=tolerance,
        step=step,
        worst=worst,
    )


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------


def train(
    splits: DatasetSplits,
    config: TrainConfig,
    filter_index=None,
) -> tuple[TrainState, list[dict]]:
    """Epochs of seeded shuffled mini-batches with periodic validation MRR.

    Requires a reciprocal-augmented training split.  Keeps a copy of the
    best-on-validation parameters; if validation never runs, the final
    parameters stand in as best.
    """
    if not splits.reciprocal:
        raise ValueError("training expects a reciprocal-augmented dataset")
    vocab = splits.vocabulary
    offset = 1 if vocab.has_no_time else 0
    state = init_state(
        config, vocab.n_entities, vocab.n_relations, vocab.n_timestamps
    )
    evaluate_valid = config.eval_every > 0 and splits.valid.shape[0] > 0
    if evaluate_valid and filter_index is None:
        filter_index = build_filter_index(splits)
    shuffle_rng = rng_stream(config.seed, "shuffle")
    history: list[dict] = []
    n = splits.train.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start: start + config.batch_size]
            loss, grads = batch_loss(
                state.params, splits.train[rows], config, time_offset=offset
            )
            adam_step(state, grads, config)
            total += loss * rows.size
        epoch_loss = total / n
        state.epoch_losses.append(epoch_loss)
        record = {"epoch": epoch, "train_loss": epoch_loss, "valid_mrr": None}
        if evaluate_valid and epoch % config.eval_every == 0:
            materialize_timestamps(state.params, offset)
            metrics = evaluate(state.params, splits.valid, filter_index)
            record["valid_mrr"] = metrics.mrr
            state.valid_history.append((epoch, metrics.mrr))
            if metrics.mrr > state.best_valid_mrr:
                state.best_valid_mrr = metrics.mrr
                state.best_epoch = epoch
                state.best_params = state.params.copy()
        history.append(record)
    materialize_timestamps(state.params, offset)
    if state.best_params is None:
        state.best_params = state.params.copy()
        state.best_epoch = config.epochs
    return state, history


# ---------------------------------------------------------------------------
# Flat config values (manifests, grid axes, CLI).
# ---------------------------------------------------------------------------

FLAT_DEFAULTS: dict = {
    "model": "tntcomplex",
    "rank": 25,
    "rank_relation": None,
    "rank_time": None,
    "tail_conjugation": True,
    "reg": "none",
    "p": 3,
    "hidden_size": 8,
    "lambda1": 0.0,
    "lambda2": 0.0,
    "learning_rate": 0.1,
    "batch_size": 1000,
    "epochs": 50,
    "seed": 0,
    "eval_every": 0,
    "init_scale": 1e-2,
    "dtype": "float64",
    "beta1": 0.9,
    "beta2": 0.999,
    "epsilon": 1e-8,
}


# Flat keys of the ModelSpec and the TemporalRegSpec.  Every other flat key is
# the TrainConfig field of that name, of the type of its default.
_NESTED_KEYS = ("model", "rank", "rank_relation", "rank_time",
                "tail_conjugation", "reg", "p", "hidden_size")


def build_config(values: dict) -> TrainConfig:
    """TrainConfig from a flat value mapping (unknown keys are an error)."""
    merged = dict(FLAT_DEFAULTS)
    for key, value in values.items():
        if key not in merged:
            raise ValueError(f"unknown configuration key {key!r}")
        merged[key] = value
    spec = ModelSpec(
        model=str(merged["model"]).lower(),
        rank=int(merged["rank"]),
        rank_relation=(
            None if merged["rank_relation"] is None
            else int(merged["rank_relation"])
        ),
        rank_time=(
            None if merged["rank_time"] is None else int(merged["rank_time"])
        ),
        tail_conjugation=_as_bool(merged["tail_conjugation"]),
    )
    reg = parse_reg_spec(
        str(merged["reg"]), p=int(merged["p"]),
        hidden_size=int(merged["hidden_size"]),
    )
    return TrainConfig(
        model=spec,
        reg=reg,
        **{key: type(default)(merged[key])
           for key, default in FLAT_DEFAULTS.items() if key not in _NESTED_KEYS},
    )


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    return bool(value)


def config_values(config: TrainConfig) -> dict:
    """Flat mapping capturing the full effective configuration."""
    values = {
        "model": config.model.model,
        "rank": config.model.rank,
        "rank_relation": config.model.rank_relation,
        "rank_time": config.model.rank_time,
        "tail_conjugation": config.model.tail_conjugation,
        "reg": config.reg.label,
        "p": config.reg.p,
        "hidden_size": config.reg.hidden_size,
    }
    values.update((key, getattr(config, key)) for key in FLAT_DEFAULTS
                  if key not in _NESTED_KEYS)
    return values


def write_manifest(path, values: dict, history: Optional[list[dict]] = None) -> None:
    """Flat key = value run manifest, including per-epoch metrics."""
    lines = [f"{key} = {value}" for key, value in values.items()]
    for record in history or []:
        epoch = record["epoch"]
        lines.append(f"epoch_{epoch}_train_loss = {record['train_loss']:.10f}")
        if record.get("valid_mrr") is not None:
            lines.append(f"epoch_{epoch}_valid_mrr = {record['valid_mrr']:.10f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_history_csv(path, history: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,valid_mrr\n")
        for record in history:
            mrr = record.get("valid_mrr")
            fh.write(
                f"{record['epoch']},{record['train_loss']:.10f},"
                f"{'' if mrr is None else f'{mrr:.10f}'}\n"
            )


# ---------------------------------------------------------------------------
# Grid search.
# ---------------------------------------------------------------------------

GRID_COLUMNS = [
    "status", "model", "rank", "reg", "p", "hidden_size", "lambda1",
    "lambda2", "learning_rate", "batch_size", "epochs", "seed",
    "valid_mrr", "valid_hits1", "valid_hits3", "valid_hits10",
    "test_mrr", "test_hits1", "test_hits3", "test_hits10",
    "seconds", "error",
]


def _metric_fields(prefix: str, metrics: Optional[Metrics]) -> dict:
    if metrics is None:
        return {f"{prefix}_mrr": None, f"{prefix}_hits1": None,
                f"{prefix}_hits3": None, f"{prefix}_hits10": None}
    return {
        f"{prefix}_mrr": metrics.mrr,
        f"{prefix}_hits1": metrics.hits_at[1],
        f"{prefix}_hits3": metrics.hits_at[3],
        f"{prefix}_hits10": metrics.hits_at[10],
    }


# Bump when the cached row format or its meaning changes.
_GRID_CACHE_VERSION = 2


def _grid_key(values: dict, data_hash: str) -> str:
    blob = json.dumps(
        {"version": _GRID_CACHE_VERSION, "data": data_hash, "config": values},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def grid_search(
    splits: DatasetSplits,
    base_values: dict,
    axes: dict[str, list],
    out_dir=None,
    eval_test: bool = True,
) -> list[dict]:
    """Train every configuration in the Cartesian grid and rank the rows by
    validation MRR (descending).

    With ``out_dir`` set, each completed configuration is cached in
    ``out_dir/results/<hash>.json``, keyed by the configuration and the
    content of ``splits``; a resumed run reuses those rows (status "cached")
    instead of retraining.  Individual failures become status "error" rows,
    which do not abort the sweep and are not cached, so a rerun retries them.
    """
    results_dir = None
    if out_dir is not None:
        results_dir = Path(out_dir) / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
    filter_index = build_filter_index(splits)
    data_hash = splits.content_hash()
    names = list(axes)
    rows = []
    for combo in itertools.product(*(axes[name] for name in names)):
        values = dict(base_values)
        values.update(dict(zip(names, combo)))
        cache_path = (
            None if results_dir is None
            else results_dir / f"{_grid_key(values, data_hash)}.json"
        )
        if cache_path is not None and cache_path.exists():
            row = json.loads(cache_path.read_text())
            row["status"] = "cached"
            rows.append(row)
            continue
        row = dict.fromkeys(GRID_COLUMNS)
        row.update({k: v for k, v in values.items() if k in FLAT_DEFAULTS})
        row["error"] = ""
        started = time.perf_counter()
        try:
            config = build_config(values)
            effective = config_values(config)
            row.update({k: effective[k] for k in GRID_COLUMNS
                        if k in effective})
            state, _ = train(splits, config, filter_index=filter_index)
            params = state.best_params
            valid = (
                evaluate(params, splits.valid, filter_index)
                if splits.valid.shape[0] else None
            )
            test = (
                evaluate(params, splits.test, filter_index)
                if eval_test and splits.test.shape[0] else None
            )
            row.update(_metric_fields("valid", valid))
            row.update(_metric_fields("test", test))
            row["status"] = "ok"
        except Exception as exc:
            row["status"] = "error"
            row["error"] = str(exc)
        row["seconds"] = time.perf_counter() - started
        if cache_path is not None and row["status"] == "ok":
            cache_path.write_text(json.dumps(row, default=str))
        rows.append(row)
    rows.sort(
        key=lambda r: -1.0 if r.get("valid_mrr") is None else r["valid_mrr"],
        reverse=True,
    )
    return rows


def write_grid_csv(rows: list[dict], path) -> None:
    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.6f}"
        return str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(GRID_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row.get(col)) for col in GRID_COLUMNS) + "\n")
