"""Filtered ranking evaluation: MRR and Hits@k over both query directions.

Every test quadruple (i, j, k, l) contributes two queries: the right query
(i, j, ?, l) and the left query asked through the reciprocal relation,
(k, j^-1, ?, l).  For each query, every other entity known to be a true
answer at the same timestamp (per the filter index) is discounted before
ranking the expected entity among the remaining candidates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import inverse_relation
from .datasets import FilterIndex
from .models import ModelParams, score_all_objects_batch

TIE_POLICIES = ("pessimistic", "optimistic", "mean")
DEFAULT_HITS = (1, 3, 10)

# Queries per scoring pass; evaluation is read-only so the chunking is purely
# a memory knob.
_CHUNK = 512


class NonFiniteScoreError(RuntimeError):
    """Raised instead of ranking NaN or infinite scores, which compare false
    and would rank every true answer first."""


@dataclass
class Metrics:
    """Filtered MRR and Hits@k, with the per-direction breakdown attached."""

    mrr: float
    hits_at: dict[int, float]
    n_queries: int
    by_direction: dict[str, "Metrics"] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "mrr": self.mrr,
            "hits_at": {str(k): v for k, v in self.hits_at.items()},
            "queries": self.n_queries,
        }
        for name, sub in self.by_direction.items():
            out[name] = sub.to_dict()
        return out


def _rank_from_scores(
    scores: np.ndarray,
    true_entity: int,
    filter_objects: np.ndarray,
    tie_policy: str,
) -> float:
    true_score = scores[true_entity]
    competitors = np.ones(scores.shape[0], dtype=bool)
    competitors[filter_objects] = False
    competitors[true_entity] = False
    greater = int(np.count_nonzero(scores[competitors] > true_score))
    equal = int(np.count_nonzero(scores[competitors] == true_score))
    if tie_policy == "pessimistic":
        return 1 + greater + equal
    if tie_policy == "optimistic":
        return 1 + greater
    return 1 + greater + equal / 2.0


def rank_query(
    params: ModelParams,
    subject: int,
    relation: int,
    timestamp: int,
    true_object: int,
    filter_objects: np.ndarray,
    tie_policy: str = "pessimistic",
) -> float:
    """Filtered rank (>= 1) of the true object for one (s, r, ?, t) query.

    Ties against the true entity count against it under the default
    pessimistic policy; "optimistic" and "mean" are available for audits
    (mean ranks can be half-integral).
    """
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    filter_objects = np.asarray(filter_objects, dtype=np.int64)
    if true_object not in filter_objects:
        raise ValueError(
            "contract violation: the true object must be in the filter set"
        )
    scores = score_all_objects_batch(
        params,
        np.array([subject]),
        np.array([relation]),
        np.array([timestamp]),
    )[0]
    return _rank_from_scores(scores, true_object, filter_objects, tie_policy)


def _direction_ranks(
    params: ModelParams,
    queries: np.ndarray,
    answers: np.ndarray,
    filter_index: FilterIndex,
    tie_policy: str,
) -> np.ndarray:
    ranks = np.empty(queries.shape[0], dtype=np.float64)
    for start in range(0, queries.shape[0], _CHUNK):
        stop = min(start + _CHUNK, queries.shape[0])
        block = queries[start:stop]
        scores = score_all_objects_batch(
            params, block[:, 0], block[:, 1], block[:, 2]
        )
        true_scores = scores[np.arange(block.shape[0]), answers[start:stop]]
        bad = np.flatnonzero(~np.isfinite(true_scores))
        if bad.size:
            query = tuple(int(x) for x in block[bad[0]])
            raise NonFiniteScoreError(
                f"non-finite score {true_scores[bad[0]]} for the true answer "
                f"of query (subject, relation, timestamp) = {query}"
            )
        for pos in range(block.shape[0]):
            subject, relation, timestamp = (int(x) for x in block[pos])
            key = (subject, relation, timestamp)
            if key not in filter_index:
                raise KeyError(
                    f"contract violation: no filter entry for query {key}"
                )
            ranks[start + pos] = _rank_from_scores(
                scores[pos],
                int(answers[start + pos]),
                filter_index.objects(*key),
                tie_policy,
            )
    return ranks


def _summarize(ranks: np.ndarray, hits_ks) -> Metrics:
    return Metrics(
        mrr=float(np.mean(1.0 / ranks)),
        hits_at={k: float(np.mean(ranks <= k)) for k in hits_ks},
        n_queries=int(ranks.size),
    )


def evaluate(
    params: ModelParams,
    quads: np.ndarray,
    filter_index: FilterIndex,
    tie_policy: str = "pessimistic",
    hits_ks=DEFAULT_HITS,
) -> Metrics:
    """Filtered metrics over the pooled right and left queries of ``quads``.

    ``quads`` is an (n, 4) id array; the relation space must be
    reciprocal-augmented and the filter index must cover both directions.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    quads = np.asarray(quads)
    if quads.shape[0] == 0:
        raise ValueError("cannot evaluate zero queries")
    bad_tensor = params.first_nonfinite()
    if bad_tensor is not None:
        raise NonFiniteScoreError(
            f"cannot rank: tensor {bad_tensor} holds non-finite values"
        )
    n_rel = params.n_relations
    right_queries = quads[:, [0, 1, 3]]
    right_answers = quads[:, 2]
    inverse = inverse_relation(quads[:, 1], n_rel)
    left_queries = np.stack([quads[:, 2], inverse, quads[:, 3]], axis=1)
    left_answers = quads[:, 0]

    right_ranks = _direction_ranks(
        params, right_queries, right_answers, filter_index, tie_policy
    )
    left_ranks = _direction_ranks(
        params, left_queries, left_answers, filter_index, tie_policy
    )
    pooled = _summarize(np.concatenate([right_ranks, left_ranks]), hits_ks)
    pooled.by_direction = {
        "right": _summarize(right_ranks, hits_ks),
        "left": _summarize(left_ranks, hits_ks),
    }
    return pooled


def write_metrics_json(
    metrics: Metrics, path, tie_policy: str = "pessimistic",
    extra: Optional[dict] = None,
) -> None:
    payload = metrics.to_dict()
    payload["tie_policy"] = tie_policy
    payload.update(extra or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
