import numpy as np
import pytest

from conftest import make_params, oracle_evaluate_ranks, random_dataset
from tkgc.core import DatasetSplits, Vocabulary, inverse_relation
from tkgc.datasets import augment_reciprocal, build_filter_index
from tkgc.evaluation import (
    NonFiniteScoreError,
    _rank_from_scores,
    evaluate,
    rank_query,
)
from tkgc.models import (
    CHRONOR,
    TCOMPLEX,
    TNTCOMPLEX,
    ModelParams,
    ModelSpec,
)

MODELS = (TCOMPLEX, TNTCOMPLEX, CHRONOR)


def _scored_params(entity_scores):
    """TComplEx params at d=1 whose all-object scores equal entity_scores."""
    n = len(entity_scores)
    entity = np.zeros((n, 2))
    entity[:, 0] = entity_scores
    ones = np.array([[1.0, 0.0]])
    return ModelParams(
        spec=ModelSpec(model=TCOMPLEX, rank=1),
        entity=entity, relation=ones.copy(), timestamp=ones.copy(),
    )


class TestRankQuery:
    def test_single_entity(self):
        params = _scored_params([1.0])
        assert rank_query(params, 0, 0, 0, 0, np.array([0])) == 1

    def test_sorted_rank(self):
        # True score 2.0 against {3.0, 1.0, 0.5}: one competitor above.
        params = _scored_params([3.0, 2.0, 1.0, 0.5])
        assert rank_query(params, 0, 0, 0, 1, np.array([1])) == 2

    def test_filtered_competitor_removed(self):
        params = _scored_params([3.0, 2.0, 1.0, 0.5])
        assert rank_query(params, 0, 0, 0, 1, np.array([0, 1])) == 1

    def test_true_object_must_be_in_filter(self):
        params = _scored_params([1.0, 2.0])
        with pytest.raises(ValueError, match="contract"):
            rank_query(params, 0, 0, 0, 1, np.array([0]))

    def test_tie_policies(self):
        params = _scored_params([2.0, 2.0, 2.0, 1.0])
        args = (params, 0, 0, 0, 0, np.array([0]))
        assert rank_query(*args, tie_policy="pessimistic") == 3
        assert rank_query(*args, tie_policy="optimistic") == 1
        assert rank_query(*args, tie_policy="mean") == 2.0

    def test_unknown_policy(self):
        params = _scored_params([1.0])
        with pytest.raises(ValueError):
            rank_query(params, 0, 0, 0, 0, np.array([0]), tie_policy="hopeful")


class TestRankFromScores:
    def test_monotone_transform_leaves_ranks_unchanged(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.standard_normal(12)
            true_entity = int(rng.integers(12))
            others = rng.choice(12, size=3, replace=False)
            filt = np.unique(np.append(others, true_entity))
            for policy in ("pessimistic", "optimistic", "mean"):
                base = _rank_from_scores(scores, true_entity, filt, policy)
                for transform in (lambda s: 2.0 * s + 1.0, np.tanh):
                    assert _rank_from_scores(
                        transform(scores), true_entity, filt, policy
                    ) == base

    def test_enlarging_filter_never_worsens_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.standard_normal(10)
            true_entity = int(rng.integers(10))
            small = np.array([true_entity])
            extra = rng.choice(10, size=4, replace=False)
            large = np.unique(np.append(extra, true_entity))
            for policy in ("pessimistic", "optimistic", "mean"):
                r_small = _rank_from_scores(scores, true_entity, small, policy)
                r_large = _rank_from_scores(scores, true_entity, large, policy)
                assert r_large <= r_small


class TestEvaluate:
    def test_perfect_model(self):
        # One-hot entities with all-ones relation and timestamp rows score
        # <i, k>: strictly highest for k == i, a perfect model of the
        # identity dataset (i, same, i, t).
        n = 10
        facts = np.stack([
            np.arange(n), np.zeros(n, dtype=int), np.arange(n),
            np.zeros(n, dtype=int),
        ], axis=1).astype(np.int32)
        vocab = Vocabulary(
            entities=[f"e{i}" for i in range(n)],
            relations=["same"], timestamps=["2020-01-01"],
        )
        identity = augment_reciprocal(DatasetSplits(
            train=facts, valid=facts.copy(), test=facts.copy(),
            vocabulary=vocab,
        ))
        entity = np.zeros((n, 2 * n))
        entity[np.arange(n), np.arange(n)] = 1.0
        params = ModelParams(
            spec=ModelSpec(model=TCOMPLEX, rank=n),
            entity=entity,
            relation=np.concatenate(
                [np.ones((2, n)), np.zeros((2, n))], axis=1
            ),
            timestamp=np.concatenate(
                [np.ones((1, n)), np.zeros((1, n))], axis=1
            ),
        )
        metrics = evaluate(params, identity.test,
                           build_filter_index(identity))
        assert metrics.mrr == 1.0
        assert all(v == 1.0 for v in metrics.hits_at.values())

    def test_constant_scores_rank_last(self):
        n = 9
        params = _scored_params([1.0] * n)
        facts = np.array([[0, 0, 3, 0]], dtype=np.int32)
        vocab = Vocabulary(
            entities=[f"e{i}" for i in range(n)], relations=["r"],
            timestamps=["2020-01-01"],
        )
        splits = augment_reciprocal(DatasetSplits(
            train=facts, valid=facts.copy(), test=facts.copy(), vocabulary=vocab,
        ))
        params = ModelParams(
            spec=ModelSpec(model=TCOMPLEX, rank=1),
            entity=np.tile(np.array([1.0, 0.0]), (n, 1)),
            relation=np.tile(np.array([1.0, 0.0]), (2, 1)),
            timestamp=np.array([[1.0, 0.0]]),
        )
        metrics = evaluate(params, splits.test, build_filter_index(splits))
        assert metrics.mrr == pytest.approx(1.0 / n)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_bruteforce_reference(self, model):
        rng = np.random.default_rng(hash(model) % 2 ** 32)
        for trial in range(6):
            n_ent = int(rng.integers(3, 13))
            n_rel = int(rng.integers(1, 5))
            n_ts = int(rng.integers(1, 7))
            splits = augment_reciprocal(
                random_dataset(rng, n_ent, n_rel, n_ts)
            )
            params = make_params(
                model, rng, n_entities=n_ent, n_relations=2 * n_rel,
                n_timestamps=n_ts,
            )
            index = build_filter_index(splits)
            metrics = evaluate(params, splits.test, index)
            ranks = np.array(
                oracle_evaluate_ranks(params, splits.test, index)
            )
            assert metrics.mrr == float(np.mean(1.0 / ranks))
            for k in (1, 3, 10):
                assert metrics.hits_at[k] == float(np.mean(ranks <= k))
            assert (metrics.hits_at[1] <= metrics.hits_at[3]
                    <= metrics.hits_at[10])
            assert metrics.hits_at[1] <= metrics.mrr <= 1.0
            n_test = splits.test.shape[0]
            assert metrics.by_direction["right"].mrr == float(
                np.mean(1.0 / ranks[:n_test])
            )
            assert metrics.by_direction["left"].mrr == float(
                np.mean(1.0 / ranks[n_test:])
            )

    def test_exact_ties_with_integer_embeddings(self):
        # Integer-valued embeddings make equal scores exactly equal, so tie
        # policies are exercised for real.
        rng = np.random.default_rng(42)
        splits = augment_reciprocal(random_dataset(rng, 8, 2, 3))
        spec = ModelSpec(model=TCOMPLEX, rank=2)
        params = ModelParams(
            spec=spec,
            entity=rng.integers(-2, 3, (8, 4)).astype(np.float64),
            relation=rng.integers(-2, 3, (4, 4)).astype(np.float64),
            timestamp=rng.integers(-2, 3, (3, 4)).astype(np.float64),
        )
        index = build_filter_index(splits)
        for policy in ("pessimistic", "optimistic", "mean"):
            metrics = evaluate(params, splits.test, index, tie_policy=policy)
            ranks = np.array(
                oracle_evaluate_ranks(params, splits.test, index, policy)
            )
            assert metrics.mrr == float(np.mean(1.0 / ranks))

    def test_direction_symmetry_with_tied_inverse_relations(self):
        # Dataset closed under inversion + tied parameters for j and j^-1
        # make the left and right breakdowns coincide.
        rng = np.random.default_rng(7)
        base = random_dataset(rng, 7, 2, 3, n_train=16, n_valid=4, n_test=6)
        closed = {}
        for name, arr in base.splits().items():
            flipped = arr[:, [2, 1, 0, 3]]
            closed[name] = np.unique(
                np.concatenate([arr, flipped]), axis=0
            ).astype(np.int32)
        splits = augment_reciprocal(DatasetSplits(
            train=closed["train"], valid=closed["valid"], test=closed["test"],
            vocabulary=base.vocabulary,
        ))
        params = make_params(
            TNTCOMPLEX, rng, n_entities=7, n_relations=4, n_timestamps=3
        )
        half = 2
        params.relation[half:] = params.relation[:half]
        params.relation_temporal[half:] = params.relation_temporal[:half]
        metrics = evaluate(params, splits.test, build_filter_index(splits))
        right, left = metrics.by_direction["right"], metrics.by_direction["left"]
        assert right.mrr == pytest.approx(left.mrr, rel=1e-12)
        assert right.hits_at == left.hits_at

    def test_missing_filter_key_is_contract_violation(self):
        params = _scored_params([1.0, 2.0])
        params.relation = np.tile(params.relation, (2, 1))
        quads = np.array([[0, 0, 1, 0]])
        empty_index = build_filter_index(DatasetSplits(
            train=np.array([[1, 0, 1, 0]], dtype=np.int32),
            valid=np.array([[1, 0, 1, 0]], dtype=np.int32),
            test=np.array([[1, 0, 1, 0]], dtype=np.int32),
            vocabulary=Vocabulary(
                entities=["a", "b"], relations=["r", "r^-1"],
                timestamps=["2020-01-01"],
            ),
            reciprocal=True,
        ))
        with pytest.raises(KeyError, match="contract"):
            evaluate(params, quads, empty_index)


class TestNonFiniteScores:
    """NaN compares false, so ranking NaN scores would put every true answer
    first (an all-NaN model used to score MRR 1.0)."""

    @staticmethod
    def _setup(model, rng):
        splits = augment_reciprocal(random_dataset(rng, 8, 3, 4))
        params = make_params(model, rng, n_entities=8,
                             n_relations=splits.vocabulary.n_relations,
                             n_timestamps=splits.vocabulary.n_timestamps)
        return params, splits.test, build_filter_index(splits)

    @pytest.mark.parametrize("model", MODELS)
    def test_all_nan_entity_table_raises_naming_it(self, model):
        params, quads, index = self._setup(model, np.random.default_rng(30))
        params.entity[:] = np.nan
        with pytest.raises(NonFiniteScoreError, match="entity"):
            evaluate(params, quads, index)

    def test_first_nonfinite_tensor_is_named(self):
        params, quads, index = self._setup(TNTCOMPLEX,
                                           np.random.default_rng(31))
        params.timestamp[0, 0] = np.inf
        with pytest.raises(NonFiniteScoreError, match="timestamp"):
            evaluate(params, quads, index)

    def test_overflowing_true_score_raises(self):
        # Finite tables whose scores overflow to infinity.
        params, quads, index = self._setup(TCOMPLEX,
                                           np.random.default_rng(32))
        for table in (params.entity, params.relation, params.timestamp):
            table[:] = 1e120
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteScoreError, match="true answer"):
            evaluate(params, quads, index)


class TestInverseRelations:
    def test_array_ids_equal_scalar_function(self, shift_splits_augmented):
        n_rel = shift_splits_augmented.vocabulary.n_relations
        half = n_rel // 2
        for arr in shift_splits_augmented.splits().values():
            ids = arr[:, 1]
            inverse = inverse_relation(ids, n_rel)
            assert inverse.dtype == ids.dtype
            assert inverse.tolist() == [
                inverse_relation(j, n_rel) for j in ids.tolist()
            ] == [j + half if j < half else j - half for j in ids.tolist()]

    def test_odd_relation_space_rejected(self):
        params = make_params(TCOMPLEX, np.random.default_rng(0), n_relations=3)
        quads = np.array([[0, 0, 1, 0]])
        index = build_filter_index(DatasetSplits(
            train=quads, valid=quads, test=quads,
            vocabulary=Vocabulary(entities=list("abcdef"),
                                  relations=["r", "s", "t"],
                                  timestamps=list("vwxyz")),
        ))
        with pytest.raises(ValueError, match="even size"):
            evaluate(params, quads, index)
