import math

import numpy as np
import pytest

from conftest import gradient_instance, make_params
from tkgc.models import CHRONOR, TCOMPLEX, TNTCOMPLEX, ModelParams, ModelSpec
from tkgc.regularizers import RECURRENT_VARIANTS, TemporalRegSpec
from tkgc.training import (
    NonFiniteLossError,
    TrainConfig,
    adam_step,
    batch_loss,
    build_config,
    config_values,
    gradient_check,
    grid_search,
    init_state,
    train,
    write_grid_csv,
)

MODELS = (TCOMPLEX, TNTCOMPLEX, CHRONOR)


def _config(model=TNTCOMPLEX, rank=4, **kwargs):
    return TrainConfig(model=ModelSpec(model=model, rank=rank), **kwargs)


class TestBatchLoss:
    def test_uniform_scores_give_log_n_entities(self):
        rng = np.random.default_rng(0)
        params = make_params(TNTCOMPLEX, rng, n_entities=9, scale=0.0)
        batch = np.array([[0, 0, 1, 0], [2, 1, 3, 2]])
        loss, _ = batch_loss(params, batch, _config())
        assert loss == pytest.approx(math.log(9), rel=1e-12)

    def test_single_entity_zero_loss(self):
        rng = np.random.default_rng(1)
        params = make_params(TCOMPLEX, rng, n_entities=1)
        batch = np.array([[0, 0, 0, 0]])
        loss, _ = batch_loss(params, batch, _config(model=TCOMPLEX))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_candidate_analytic_value(self):
        # phi(true) = 1, phi(other) = 0 -> loss = log(1 + e^-1).
        params = ModelParams(
            spec=ModelSpec(model=TCOMPLEX, rank=1),
            entity=np.array([[1.0, 0.0], [0.0, 0.0]]),
            relation=np.array([[1.0, 0.0]]),
            timestamp=np.array([[1.0, 0.0]]),
        )
        batch = np.array([[0, 0, 0, 0]])
        loss, _ = batch_loss(params, batch, _config(model=TCOMPLEX, rank=1))
        assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-12)

    def test_lambda_terms_added(self):
        rng = np.random.default_rng(2)
        params = make_params(TNTCOMPLEX, rng, n_entities=5)
        batch = np.array([[0, 0, 1, 0]])
        base, _ = batch_loss(params, batch, _config())
        with_reg, _ = batch_loss(
            params, batch,
            _config(reg=TemporalRegSpec(family="N", p=3), lambda1=0.1,
                    lambda2=0.1),
        )
        assert with_reg > base

    def test_raising_true_score_lowers_loss(self):
        params = ModelParams(
            spec=ModelSpec(model=TCOMPLEX, rank=1),
            entity=np.array([[0.5, 0.0], [1.0, 0.0], [0.3, 0.0]]),
            relation=np.array([[1.0, 0.0]]),
            timestamp=np.array([[1.0, 0.0]]),
        )
        batch = np.array([[1, 0, 0, 0]])
        config = _config(model=TCOMPLEX, rank=1)
        first, _ = batch_loss(params, batch, config)
        assert first >= 0.0
        params.entity[0, 0] = 2.0
        second, _ = batch_loss(params, batch, config)
        assert second < first

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(3)
        params = make_params(TCOMPLEX, rng)
        with pytest.raises(ValueError):
            batch_loss(params, np.empty((0, 4), dtype=int),
                       _config(model=TCOMPLEX))

    def test_nonfinite_aborts_with_tensor_name(self):
        rng = np.random.default_rng(4)
        params = make_params(TCOMPLEX, rng)
        params.relation[0, 0] = np.nan
        batch = np.array([[0, 0, 1, 0]])
        with pytest.raises(NonFiniteLossError, match="relation"):
            batch_loss(params, batch, _config(model=TCOMPLEX))

    def test_untouched_relation_gradient_exactly_zero(self):
        rng = np.random.default_rng(5)
        params = make_params(TNTCOMPLEX, rng, n_relations=4)
        batch = np.array([[0, 1, 2, 0], [3, 1, 4, 2]])
        _, grads = batch_loss(params, batch, _config())
        assert not grads.tensors["relation"][0].any()
        assert not grads.tensors["relation"][2].any()
        assert grads.tensors["relation"][1].any()
        assert np.array_equal(grads.touched["relation"], np.array([1]))

    def test_untouched_timestamp_gradient_zero_without_penalty(self):
        rng = np.random.default_rng(6)
        params = make_params(TCOMPLEX, rng, n_timestamps=5)
        batch = np.array([[0, 0, 1, 2]])
        _, grads = batch_loss(params, batch, _config(model=TCOMPLEX))
        for row in (0, 1, 3, 4):
            assert not grads.tensors["timestamp"][row].any()
        assert grads.tensors["timestamp"][2].any()

    def test_temporal_penalty_added_once_per_batch(self):
        # Doubling the batch must not scale the lambda2 term: it depends on
        # the timestamp table only.
        rng = np.random.default_rng(7)
        params = make_params(TNTCOMPLEX, rng)
        single = np.array([[0, 0, 1, 0]])
        double = np.repeat(single, 2, axis=0)
        plain = _config()
        smoothed = _config(reg=TemporalRegSpec(family="N", p=3), lambda2=0.5)
        gap_single = (batch_loss(params, single, smoothed)[0]
                      - batch_loss(params, single, plain)[0])
        gap_double = (batch_loss(params, double, smoothed)[0]
                      - batch_loss(params, double, plain)[0])
        assert gap_single == pytest.approx(gap_double, rel=1e-12)
        assert gap_single > 0

    def test_reserved_no_time_slot_excluded_from_penalty(self):
        # With the offset set, the penalty sees only rows 1.. ; making row 0
        # wild must not change the loss, and its gradient comes from the
        # scores alone.
        rng = np.random.default_rng(8)
        params = make_params(TNTCOMPLEX, rng, n_timestamps=4)
        batch = np.array([[0, 0, 1, 2]])
        config = _config(reg=TemporalRegSpec(family="N", p=3), lambda2=0.5)
        before, _ = batch_loss(params, batch, config, time_offset=1)
        params.timestamp[0] += 100.0
        after, _ = batch_loss(params, batch, config, time_offset=1)
        assert before == pytest.approx(after, rel=1e-12)


class TestGradientCheck:
    @pytest.mark.parametrize("model", MODELS)
    def test_core_pairs_pass(self, model):
        rng = np.random.default_rng(hash(model) % 2 ** 32)
        for reg_tag in ("n3", "N4", "L2", "linear3", "rnn"):
            params, batch, config, offset = gradient_instance(model, reg_tag, rng)
            tolerance = 1e-4 if config.reg.family == "recurrent" else 1e-5
            report = gradient_check(
                params, batch, config, tolerance=tolerance,
                time_offset=offset, rng=rng,
            )
            assert report.passed, f"{model}+{reg_tag}: {report}"

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(11)
        params, batch, config, offset = gradient_instance(TNTCOMPLEX, "N3", rng)
        report = gradient_check(params, batch, config, time_offset=offset,
                                rng=rng)
        assert report.passed
        # Recompute with a corrupted analytic path: flip one loud entity
        # coordinate by hand and verify the comparison notices.
        _, grads = batch_loss(params, batch, config, time_offset=offset)
        idx = int(np.argmax(np.abs(grads.tensors["entity"])))
        analytic = grads.tensors["entity"].reshape(-1)[idx]
        flat = params.entity.reshape(-1)
        original = flat[idx]
        flat[idx] = original + 1e-5
        up, _ = batch_loss(params, batch, config, offset, compute_grads=False)
        flat[idx] = original - 1e-5
        down, _ = batch_loss(params, batch, config, offset, compute_grads=False)
        flat[idx] = original
        numeric = (up - down) / 2e-5
        corrupted = -analytic
        err = abs(corrupted - numeric) / max(1.0, abs(corrupted), abs(numeric))
        assert err > 1e-3

    def test_requires_double_precision(self):
        rng = np.random.default_rng(12)
        params, batch, config, offset = gradient_instance(TCOMPLEX, "N2", rng)
        for name, arr in params.named_tensors().items():
            params.set_tensor(name, arr.astype(np.float32))
        with pytest.raises(ValueError, match="float64"):
            gradient_check(params, batch, config, time_offset=offset)


class TestAdamStep:
    def test_zero_gradients_leave_parameters(self):
        config = _config(epochs=1)
        state = init_state(config, 4, 3, 2)
        before = {k: a.copy() for k, a in state.params.named_tensors().items()}
        from tkgc.training import GradientSet

        grads = GradientSet(
            tensors={k: np.zeros_like(a)
                     for k, a in state.params.named_tensors().items()},
            touched={k: None for k in state.params.named_tensors()},
        )
        adam_step(state, grads, config)
        assert state.step == 1
        for name, arr in state.params.named_tensors().items():
            assert np.array_equal(arr, before[name])

    def test_first_step_closed_form(self):
        # g = 1 with lr = 0.1 and default betas: bias correction makes the
        # first update lr * 1 / (1 + eps) in that coordinate.
        config = _config(model=TCOMPLEX, rank=1, learning_rate=0.1)
        state = init_state(config, 1, 1, 1)
        before = state.params.entity[0, 0]
        from tkgc.training import GradientSet

        tensors = {k: np.zeros_like(a)
                   for k, a in state.params.named_tensors().items()}
        tensors["entity"][0, 0] = 1.0
        grads = GradientSet(tensors=tensors,
                            touched={k: None for k in tensors})
        adam_step(state, grads, config)
        moved = state.params.entity[0, 0] - before
        assert moved == pytest.approx(-0.1, abs=1e-6)
        assert moved == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-12)
        assert not state.m["relation"].any()  # zero-grad tensors untouched

    def test_sparse_rows_keep_untouched_moments(self):
        config = _config(model=TCOMPLEX, rank=2)
        state = init_state(config, 3, 4, 2)
        from tkgc.training import GradientSet

        tensors = {k: np.zeros_like(a)
                   for k, a in state.params.named_tensors().items()}
        tensors["relation"][1] = 1.0
        touched = {k: None for k in tensors}
        touched["relation"] = np.array([1])
        before = state.params.relation.copy()
        adam_step(state, GradientSet(tensors, touched), config)
        assert np.array_equal(state.params.relation[0], before[0])
        assert np.array_equal(state.params.relation[2], before[2])
        assert not np.array_equal(state.params.relation[1], before[1])
        assert not state.m["relation"][0].any()
        assert state.m["relation"][1].any()

    def test_shape_mismatch_rejected(self):
        config = _config(model=TCOMPLEX)
        state = init_state(config, 2, 2, 2)
        from tkgc.training import GradientSet

        tensors = {k: np.zeros_like(a)
                   for k, a in state.params.named_tensors().items()}
        tensors["entity"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, GradientSet(tensors, {k: None for k in tensors}),
                      config)

    def test_deterministic_across_runs(self, shift_splits_augmented):
        config = _config(rank=6, epochs=3, batch_size=256, lambda1=1e-3,
                         seed=5)
        results = []
        for _ in range(2):
            state, _ = train(shift_splits_augmented, config)
            results.append(
                {k: a.copy() for k, a in state.params.named_tensors().items()}
            )
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    @pytest.mark.parametrize("variant", RECURRENT_VARIANTS)
    def test_recurrent_deterministic_across_runs(self, shift_splits_augmented,
                                                 variant):
        config = _config(rank=6, epochs=2, batch_size=256, seed=5,
                         reg=TemporalRegSpec(family="recurrent",
                                             variant=variant, hidden_size=3))
        runs = [train(shift_splits_augmented, config) for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        first, second = (state.params.named_tensors() for state, _ in runs)
        for name in first:
            assert np.array_equal(first[name], second[name]), name


class TestTrain:
    def test_loss_strictly_decreasing_first_epochs(self, shift_splits_augmented):
        config = _config(rank=25, epochs=10, batch_size=1000, lambda1=1e-3,
                         learning_rate=0.05, seed=0)
        state, history = train(shift_splits_augmented, config)
        losses = [record["train_loss"] for record in history]
        assert len(losses) == 10
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_zero_epochs_returns_initial_state(self, shift_splits_augmented):
        config = _config(rank=4, epochs=0, seed=3)
        state, history = train(shift_splits_augmented, config)
        vocab = shift_splits_augmented.vocabulary
        fresh = init_state(config, vocab.n_entities, vocab.n_relations,
                           vocab.n_timestamps)
        assert history == []
        assert state.step == 0
        for name, arr in state.params.named_tensors().items():
            assert np.array_equal(arr, fresh.params.named_tensors()[name])

    def test_same_seed_identical_history(self, shift_splits_augmented):
        config = _config(rank=6, epochs=4, batch_size=512, seed=9)
        _, first = train(shift_splits_augmented, config)
        _, second = train(shift_splits_augmented, config)
        assert first == second

    def test_requires_reciprocal_split(self, shift_splits):
        with pytest.raises(ValueError, match="reciprocal"):
            train(shift_splits, _config(epochs=1))

    def test_validation_tracking_keeps_best(self, shift_splits_augmented):
        config = _config(rank=8, epochs=6, batch_size=512, eval_every=2,
                         lambda1=1e-3, seed=1)
        state, history = train(shift_splits_augmented, config)
        evaluated = [r for r in history if r["valid_mrr"] is not None]
        assert len(evaluated) == 3
        assert state.best_epoch in {r["epoch"] for r in evaluated}
        assert state.best_valid_mrr == max(r["valid_mrr"] for r in evaluated)
        assert state.best_params is not None

    def test_trains_on_dataset_with_no_time_slot(self):
        from tkgc.datasets import RawFact, augment_reciprocal, build_dataset

        facts = [
            RawFact("A", "r", "B"),
            RawFact("B", "r", "C", time="2001-01-01"),
            RawFact("C", "r", "A", time="2002-01-01"),
            RawFact("A", "r", "C", time="2003-01-01"),
        ]
        splits = augment_reciprocal(build_dataset(facts, facts[:1], facts[1:2]))
        assert splits.vocabulary.has_no_time
        config = _config(rank=4, epochs=3, batch_size=8, lambda1=1e-3,
                         lambda2=0.1, reg=TemporalRegSpec(family="N", p=3),
                         seed=0)
        state, history = train(splits, config)
        assert all(np.isfinite(r["train_loss"]) for r in history)

    def test_float32_training_smoke(self, shift_splits_augmented):
        config = _config(rank=4, epochs=2, batch_size=512, lambda1=1e-3,
                         dtype="float32", seed=0)
        state, history = train(shift_splits_augmented, config)
        assert state.params.dtype == np.float32
        assert all(np.isfinite(r["train_loss"]) for r in history)

    def test_recurrent_mode_trains_and_materializes(self, shift_splits_augmented):
        config = _config(
            rank=6, epochs=2, batch_size=512, seed=2,
            reg=TemporalRegSpec(family="recurrent", variant="linear_rnn",
                                hidden_size=3),
        )
        state, history = train(shift_splits_augmented, config)
        from tkgc.regularizers import recurrent_generate

        expected = recurrent_generate(
            state.params.recurrent, state.params.n_timestamps
        )
        assert np.array_equal(state.params.timestamp, expected)


class TestConfig:
    def test_invalid_exponent_rejected_before_training(self):
        with pytest.raises(ValueError):
            build_config({"reg": "N", "p": 0})

    def test_recurrent_hidden_must_be_below_rank(self):
        with pytest.raises(ValueError, match="hidden"):
            build_config({"reg": "rnn", "hidden_size": 8, "rank": 8})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_config({"massively": 1})

    def test_round_trip(self):
        values = {"model": "chronor", "rank": 6, "reg": "L2", "lambda1": 0.01,
                  "lambda2": 0.5, "epochs": 7}
        config = build_config(values)
        flat = config_values(config)
        assert flat["model"] == "chronor"
        assert flat["reg"] == "L2"
        assert flat["rank_relation"] == 3
        rebuilt = build_config(flat)
        assert rebuilt == config


class TestGridSearch:
    def test_single_point_grid_matches_direct_train(self, shift_splits_augmented):
        base = {"rank": 4, "epochs": 2, "batch_size": 512, "seed": 4,
                "lambda1": 1e-3}
        rows = grid_search(shift_splits_augmented, base, {"lambda2": [0.0]})
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"

        from tkgc.datasets import build_filter_index
        from tkgc.evaluation import evaluate

        config = build_config({**base, "lambda2": 0.0})
        state, _ = train(shift_splits_augmented, config)
        index = build_filter_index(shift_splits_augmented)
        direct = evaluate(state.best_params, shift_splits_augmented.valid, index)
        assert row["valid_mrr"] == pytest.approx(direct.mrr, rel=1e-12)

    def test_grid_rows_sorted_by_valid_mrr(self, shift_splits_augmented):
        base = {"rank": 4, "epochs": 2, "batch_size": 512, "seed": 4}
        rows = grid_search(
            shift_splits_augmented, base,
            {"lambda2": [0.0, 0.1], "p": [2, 3]},
        )
        assert len(rows) == 4
        mrrs = [row["valid_mrr"] for row in rows]
        assert mrrs == sorted(mrrs, reverse=True)

    def test_resume_reuses_results(self, tmp_path, shift_splits_augmented):
        base = {"rank": 4, "epochs": 1, "batch_size": 512, "seed": 4,
                "reg": "N"}
        axes = {"lambda2": [0.0, 0.01]}
        first = grid_search(shift_splits_augmented, base, axes,
                            out_dir=tmp_path)
        assert {row["status"] for row in first} == {"ok"}
        second = grid_search(shift_splits_augmented, base, axes,
                             out_dir=tmp_path)
        assert {row["status"] for row in second} == {"cached"}
        assert sorted(row["valid_mrr"] for row in second) == sorted(
            row["valid_mrr"] for row in first
        )

    def test_cache_keyed_by_dataset(self, tmp_path, shift_splits_augmented):
        from conftest import random_dataset
        from tkgc.datasets import augment_reciprocal

        # Same vocabulary, different facts.
        other = augment_reciprocal(random_dataset(
            np.random.default_rng(0), 20, 3, 8, n_train=200))
        base = {"rank": 4, "epochs": 1, "batch_size": 512, "seed": 4}
        axes = {"lambda2": [0.0]}
        first = grid_search(shift_splits_augmented, base, axes,
                            out_dir=tmp_path)
        second = grid_search(other, base, axes, out_dir=tmp_path)
        assert [row["status"] for row in first] == ["ok"]
        assert [row["status"] for row in second] == ["ok"]

    def test_failed_configuration_retried(self, tmp_path,
                                          shift_splits_augmented):
        base = {"rank": 4, "epochs": 1, "batch_size": 512, "reg": "N"}
        for _ in range(2):
            rows = grid_search(shift_splits_augmented, base, {"p": [0]},
                               out_dir=tmp_path)
            assert [row["status"] for row in rows] == ["error"]

    def test_failed_configuration_recorded_not_fatal(self, tmp_path,
                                                     shift_splits_augmented):
        base = {"rank": 4, "epochs": 1, "batch_size": 512, "reg": "N"}
        rows = grid_search(
            shift_splits_augmented, base, {"p": [3, 0]}, out_dir=tmp_path
        )
        statuses = sorted(row["status"] for row in rows)
        assert statuses == ["error", "ok"]
        failed = next(row for row in rows if row["status"] == "error")
        assert "p" in failed["error"] or "exponent" in failed["error"]

    def test_csv_writer(self, tmp_path, shift_splits_augmented):
        rows = grid_search(
            shift_splits_augmented,
            {"rank": 4, "epochs": 1, "batch_size": 512},
            {"lambda2": [0.0]},
        )
        path = tmp_path / "grid.csv"
        write_grid_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("status,model,rank,reg")
        assert len(lines) == 2
