"""Shared fixtures and independent scalar oracles.

The oracles reimplement scoring, regularization, and ranking with plain
Python complex arithmetic and naive loops, deliberately sharing no code with
the vectorized library paths they check.
"""

from __future__ import annotations

import numpy as np
import pytest

from tkgc.core import DatasetSplits, Vocabulary, inverse_relation
from tkgc.datasets import augment_reciprocal, build_filter_index
from tkgc.models import CHRONOR, TCOMPLEX, TNTCOMPLEX, ModelParams, ModelSpec


def as_complex_list(row) -> list[complex]:
    """Split-half storage row -> list of Python complex numbers."""
    row = list(row)
    d = len(row) // 2
    return [complex(row[z], row[d + z]) for z in range(d)]


def oracle_score(params: ModelParams, quad) -> float:
    """Scalar-by-scalar score with Python complex arithmetic."""
    i, j, k, l = (int(x) for x in quad)
    head = as_complex_list(params.entity[i])
    tail = as_complex_list(params.entity[k])
    time = as_complex_list(params.timestamp[l])
    spec = params.spec
    if spec.model == TCOMPLEX:
        rel = as_complex_list(params.relation[j])
        composite = [rel[z] * time[z] for z in range(spec.rank)]
    elif spec.model == TNTCOMPLEX:
        rel_t = as_complex_list(params.relation_temporal[j])
        rel_s = as_complex_list(params.relation[j])
        composite = [rel_t[z] * time[z] + rel_s[z] for z in range(spec.rank)]
    else:
        rel = as_complex_list(params.relation[j])
        rot = as_complex_list(params.rotation[j])
        joined = rel + time
        composite = [joined[z] * rot[z] for z in range(spec.rank)]
    total = 0j
    for z in range(spec.rank):
        t = tail[z].conjugate() if spec.tail_conjugation else tail[z]
        total += head[z] * composite[z] * t
    return total.real


def oracle_residual_penalty(table, p, complex_pairs, bias=None, root=None):
    """Naive-loop temporal penalty over adjacent differences."""
    rows, width = table.shape
    total = 0.0
    for l in range(rows - 1):
        diff = [table[l + 1][c] - table[l][c] for c in range(width)]
        if bias is not None:
            diff = [diff[c] - bias[c] for c in range(width)]
        if complex_pairs:
            half = width // 2
            comps = [abs(complex(diff[z], diff[half + z])) for z in range(half)]
        else:
            comps = [abs(x) for x in diff]
        total += sum(c ** p for c in comps)
    if root == "global":
        return total ** (1.0 / p) / (rows - 1)
    return total / (rows - 1)


def oracle_rank(
    params: ModelParams, subject, relation, timestamp, true_object,
    filter_objects, tie_policy: str = "pessimistic",
) -> float:
    """Naive-loop filtered rank: scores every entity with ``oracle_score``."""
    discard = {int(x) for x in filter_objects} - {int(true_object)}
    true_score = oracle_score(params, (subject, relation, true_object, timestamp))
    greater = equal = 0
    for candidate in range(params.n_entities):
        if candidate == true_object or candidate in discard:
            continue
        s = oracle_score(params, (subject, relation, candidate, timestamp))
        if s > true_score:
            greater += 1
        elif s == true_score:
            equal += 1
    if tie_policy == "pessimistic":
        return 1 + greater + equal
    if tie_policy == "optimistic":
        return 1 + greater
    return 1 + greater + equal / 2.0


def oracle_evaluate_ranks(
    params: ModelParams, quads, filter_index, tie_policy="pessimistic"
) -> list[float]:
    """Rank list (right queries then left queries) from the naive evaluator."""
    n_rel = params.n_relations
    ranks = []
    for i, j, k, l in np.asarray(quads).tolist():
        ranks.append(
            oracle_rank(params, i, j, l, k,
                        filter_index.objects(i, j, l), tie_policy)
        )
    for i, j, k, l in np.asarray(quads).tolist():
        inv = inverse_relation(j, n_rel)
        ranks.append(
            oracle_rank(params, k, inv, l, i,
                        filter_index.objects(k, inv, l), tie_policy)
        )
    return ranks


def make_params(
    model: str,
    rng: np.random.Generator,
    n_entities: int = 6,
    n_relations: int = 4,
    n_timestamps: int = 5,
    rank: int = 4,
    scale: float = 1.0,
    tail_conjugation: bool = True,
) -> ModelParams:
    """Random dense parameters straight from a generator (test-local, not the
    library initializer)."""
    spec = ModelSpec(model=model, rank=rank, tail_conjugation=tail_conjugation)

    def draw(rows, width):
        return scale * rng.standard_normal((rows, width))

    kwargs = {
        "entity": draw(n_entities, 2 * rank),
        "timestamp": draw(n_timestamps, 2 * spec.time_rank),
    }
    if model == TCOMPLEX:
        kwargs["relation"] = draw(n_relations, 2 * rank)
    elif model == TNTCOMPLEX:
        kwargs["relation"] = draw(n_relations, 2 * rank)
        kwargs["relation_temporal"] = draw(n_relations, 2 * rank)
    else:
        kwargs["relation"] = draw(n_relations, 2 * spec.rank_relation)
        kwargs["rotation"] = draw(n_relations, 2 * rank)
    return ModelParams(spec=spec, **kwargs)


def toy_vocabulary(n_entities, n_relations, n_timestamps) -> Vocabulary:
    return Vocabulary(
        entities=[f"e{i}" for i in range(n_entities)],
        relations=[f"r{j}" for j in range(n_relations)],
        timestamps=[f"2020-01-{l + 1:02d}" for l in range(n_timestamps)],
    )


def shift_dataset(
    n_entities: int = 20, n_relations: int = 3, n_timestamps: int = 8
) -> DatasetSplits:
    """Deterministic, exactly memorizable TKG: for every (subject, relation,
    timestamp) the unique object is a cyclic shift of the subject, so both
    query directions have single-answer ground truth."""
    rows = []
    for i in range(n_entities):
        for j in range(n_relations):
            for l in range(n_timestamps):
                obj = (i + 1 + 3 * j + 5 * l) % n_entities
                rows.append((i, j, obj, l))
    train = np.array(rows, dtype=np.int32)
    held = train[::10][:48].copy()
    return DatasetSplits(
        train=train,
        valid=held,
        test=held.copy(),
        vocabulary=toy_vocabulary(n_entities, n_relations, n_timestamps),
    )


def random_dataset(
    rng: np.random.Generator,
    n_entities: int,
    n_relations: int,
    n_timestamps: int,
    n_train: int = 30,
    n_valid: int = 8,
    n_test: int = 10,
) -> DatasetSplits:
    def draw(count):
        return np.stack(
            [
                rng.integers(0, n_entities, count),
                rng.integers(0, n_relations, count),
                rng.integers(0, n_entities, count),
                rng.integers(0, n_timestamps, count),
            ],
            axis=1,
        ).astype(np.int32)

    return DatasetSplits(
        train=draw(n_train),
        valid=draw(n_valid),
        test=draw(n_test),
        vocabulary=toy_vocabulary(n_entities, n_relations, n_timestamps),
    )


# Every regularizer the gradient suite must cover: the embedding nuclear
# 3-norm alone, both smoothing families at every exponent, Linear3, and all
# recurrent generator variants.
GRADCHECK_REGS = (
    ["n3"]
    + [f"L{p}" for p in range(1, 6)]
    + [f"N{p}" for p in range(2, 6)]
    + ["linear3", "rnn", "lstm", "gru", "linear_rnn", "linear_lstm",
       "linear_gru"]
)


def gradient_instance(model: str, reg_tag: str, rng: np.random.Generator):
    """Random double-precision (params, batch, config, time_offset) tuple for
    one model x regularizer gradient check."""
    from tkgc.regularizers import init_recurrent
    from tkgc.training import TrainConfig

    offset = int(rng.integers(0, 2))
    recurrent = reg_tag in ("rnn", "lstm", "gru", "linear_rnn", "linear_lstm",
                            "linear_gru")
    n_timestamps = offset + int(rng.integers(4, 9) if recurrent
                                else rng.integers(3, 6))
    n_entities = int(rng.integers(4, 8))
    n_relations = int(rng.integers(2, 5))
    rank = 4
    tail_conj = bool(rng.integers(0, 2)) if model == CHRONOR else True
    params = make_params(
        model, rng, n_entities, n_relations, n_timestamps, rank=rank,
        scale=0.8, tail_conjugation=tail_conj,
    )
    lambda1 = float(rng.choice([0.05, 0.2])) if reg_tag != "n3" else 0.3
    lambda2 = 0.0 if reg_tag == "n3" else float(rng.choice([0.05, 0.4]))
    if reg_tag == "n3":
        reg_values = {"reg": "none"}
    elif recurrent:
        # Linear LSTM/GRU gates compound polynomially per step; keep the
        # weights small enough that the unrolled values stay O(1) so central
        # differences remain meaningful.
        scale = 0.25 if reg_tag.startswith("linear_") else 0.5
        reg_values = {"reg": reg_tag, "hidden_size": 2}
        params.recurrent = init_recurrent(
            reg_tag, 2, 2 * params.spec.time_rank, rng, scale=scale
        )
    elif reg_tag == "linear3":
        reg_values = {"reg": "linear3", "p": int(rng.integers(1, 6))}
        params.linear3_bias = 0.5 * rng.standard_normal(
            2 * params.spec.time_rank
        )
    else:
        reg_values = {"reg": reg_tag}
    from tkgc.regularizers import parse_reg_spec

    config = TrainConfig(
        model=params.spec,
        reg=parse_reg_spec(reg_values["reg"], p=reg_values.get("p", 3),
                           hidden_size=reg_values.get("hidden_size", 2)),
        lambda1=lambda1,
        lambda2=lambda2,
        seed=int(rng.integers(0, 2 ** 31)),
    )
    n_batch = int(rng.integers(2, 5))
    batch = np.stack(
        [
            rng.integers(0, n_entities, n_batch),
            rng.integers(0, n_relations, n_batch),
            rng.integers(0, n_entities, n_batch),
            rng.integers(0, n_timestamps, n_batch),
        ],
        axis=1,
    )
    return params, batch, config, offset


@pytest.fixture
def shift_splits() -> DatasetSplits:
    return shift_dataset()


@pytest.fixture
def shift_splits_augmented(shift_splits) -> DatasetSplits:
    return augment_reciprocal(shift_splits)


@pytest.fixture
def shift_filter(shift_splits_augmented):
    return build_filter_index(shift_splits_augmented)
