"""Seeded synthetic temporal KGs at the Table-1 shapes of ICEWS14 and ICEWS05-15.

Facts are drawn from a planted TNTComplEx model, so a trained model has
structure to learn and the planted tables themselves make an evaluation
checkpoint whose filtered MRR sits far above chance:

* every entity belongs to one of ``E // GROUP_SIZE`` groups;
* the object of (s, r, ?, t) lies in group ``g(s) + shift(r, era(t)) mod C``,
  where the time axis is cut into ``ERAS`` eras;
* subjects, relations and objects within a group follow Zipf popularities,
  so popular keys repeat, row scatters see duplicates and filter sets hold
  several objects, as in the real ICEWS files;
* a share ``NOISE`` of facts takes a popular object from anywhere instead.

The planted scorer encodes group g as the phases ``2 pi a_k g / C`` of
``RANK`` complex components, with one block of components per era switched
on by the (real) timestamp amplitudes, and entity moduli growing with
popularity.  Inverse relations carry the conjugate phases.

Nothing here imports ``tkgc``: generation happens before the program under
test sees its inputs.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RANK = 200
GROUP_SIZE = 8
ERAS = 4
NOISE = 0.2
ZIPF = 0.8
PHASE_JITTER = 0.1
OFF_ERA_AMPLITUDE = 0.05
SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class Shape:
    name: str
    entities: int
    relations: int
    timestamps: int
    first_day: str
    train: int
    valid: int
    test: int

    @property
    def facts(self) -> int:
        return self.train + self.valid + self.test


# Table 1 of the paper: vocabulary sizes and split sizes.
SHAPES = {
    "icews14": Shape("icews14", 7128, 230, 365, "2014-01-01",
                     72826, 8941, 8963),
    "icews05-15": Shape("icews05-15", 10488, 251, 4017, "2005-01-01",
                        386962, 46275, 46092),
}


@dataclass
class Synthetic:
    """Facts as (subject, relation, object, day) in planted id space, plus
    the planted TNTComplEx tables in the same space (relations doubled for
    the reciprocal direction)."""

    shape: Shape
    facts: dict[str, np.ndarray]
    entity_names: list[str]
    relation_names: list[str]
    dates: list[str]
    entity: np.ndarray
    relation_temporal: np.ndarray
    timestamp: np.ndarray


def _zipf(n: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf weights over a random permutation of ``n`` ids (sums to 1)."""
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF
    out = np.empty(n)
    out[rng.permutation(n)] = weights / weights.sum()
    return out


def _draw(weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(weights)
    return np.minimum(np.searchsorted(cdf, rng.random(size) * cdf[-1]),
                      weights.size - 1)


def _split_half(phase: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    return np.concatenate([modulus * np.cos(phase), modulus * np.sin(phase)],
                          axis=-1)


def generate(shape: Shape, seed: int) -> Synthetic:
    rng = np.random.default_rng(np.random.SeedSequence([seed, shape.entities]))
    n_ent, n_rel, n_time = shape.entities, shape.relations, shape.timestamps
    n_groups = n_ent // GROUP_SIZE
    group = rng.permutation(n_ent) % n_groups
    shift = rng.integers(0, n_groups, size=(n_rel, ERAS))
    era = np.arange(n_time) * ERAS // n_time

    ent_w = _zipf(n_ent, rng)
    rel_w = _zipf(n_rel, rng)

    # Every entity, relation and day occurs at least once, so the ingested
    # vocabulary has exactly the Table-1 sizes.
    n_cover = max(n_ent, n_rel, n_time)
    n_rest = shape.facts - n_cover
    subjects = np.concatenate([rng.permutation(np.resize(np.arange(n_ent), n_cover)),
                               _draw(ent_w, n_rest, rng)])
    relations = np.concatenate([rng.permutation(np.resize(np.arange(n_rel), n_cover)),
                                _draw(rel_w, n_rest, rng)])
    days = np.concatenate([rng.permutation(np.resize(np.arange(n_time), n_cover)),
                           rng.integers(0, n_time, size=n_rest)])

    # Objects: popularity-weighted within the planted target group.
    target = (group[subjects] + shift[relations, era[days]]) % n_groups
    by_group = np.lexsort((np.arange(n_ent), group))
    cdf = np.cumsum(ent_w[by_group])
    group_end = np.cumsum(np.bincount(group, weights=ent_w, minlength=n_groups))
    group_start = group_end - np.bincount(group, weights=ent_w, minlength=n_groups)
    u = group_start[target] + rng.random(target.size) * (
        group_end[target] - group_start[target])
    objects = by_group[np.minimum(np.searchsorted(cdf, u), n_ent - 1)]
    noisy = rng.random(objects.size) < NOISE
    objects[noisy] = _draw(ent_w, int(noisy.sum()), rng)

    quads = np.stack([subjects, relations, objects, days], axis=1)
    quads = quads[rng.permutation(quads.shape[0])]
    bounds = np.cumsum([shape.train, shape.valid])
    facts = dict(zip(SPLITS, np.split(quads, bounds)))

    # Planted tables.
    freq = rng.integers(1, n_groups, size=RANK)
    popularity_rank = np.argsort(np.argsort(-ent_w))
    modulus = (1.5 - 0.5 * popularity_rank / n_ent)[:, None]
    phase = (2 * np.pi * np.outer(group, freq) / n_groups
             + PHASE_JITTER * rng.standard_normal((n_ent, RANK)))
    entity = _split_half(phase, modulus)

    block = np.arange(RANK) * ERAS // RANK
    rel_phase = 2 * np.pi * shift[:, block] * freq / n_groups
    relation_temporal = np.concatenate(
        [_split_half(rel_phase, np.ones((n_rel, 1))),
         _split_half(-rel_phase, np.ones((n_rel, 1)))], axis=0)
    amplitude = np.where(block[None, :] == era[:, None], 1.0, OFF_ERA_AMPLITUDE)
    timestamp = np.concatenate([amplitude, np.zeros_like(amplitude)], axis=1)

    first = datetime.date.fromisoformat(shape.first_day)
    return Synthetic(
        shape=shape,
        facts=facts,
        entity_names=[f"Actor {i} (Region {i % 97})" for i in range(n_ent)],
        relation_names=[f"Relation_{j}" for j in range(n_rel)],
        dates=[(first + datetime.timedelta(days=t)).isoformat()
               for t in range(n_time)],
        entity=entity,
        relation_temporal=relation_temporal,
        timestamp=timestamp,
    )


def write_icews(synth: Synthetic, directory: Path) -> dict[str, Path]:
    """Tab-separated ICEWS text, one file per split."""
    ent = synth.entity_names
    rel = synth.relation_names
    dates = synth.dates
    paths = {}
    for split, quads in synth.facts.items():
        path = directory / f"{split}.txt"
        lines = [f"{ent[s]}\t{rel[r]}\t{ent[o]}\t{dates[t]}\n"
                 for s, r, o, t in quads.tolist()]
        path.write_text("".join(lines), encoding="utf-8")
        paths[split] = path
    return paths


def ingest_order(synth: Synthetic) -> tuple[np.ndarray, np.ndarray]:
    """Planted entity and relation ids in the order an ICEWS ingest assigns
    them: first seen over train, valid, test, subject before object."""
    quads = np.concatenate([synth.facts[s] for s in SPLITS], axis=0)

    def first_seen(seq: np.ndarray) -> np.ndarray:
        ids, first = np.unique(seq, return_index=True)
        return ids[np.argsort(first)]

    return first_seen(quads[:, [0, 2]].ravel()), first_seen(quads[:, 1])


def encode(synth: Synthetic) -> dict[str, np.ndarray]:
    """The splits an ingest of ``write_icews`` output must produce."""
    ent_order, rel_order = ingest_order(synth)
    ent_id = np.empty_like(ent_order)
    ent_id[ent_order] = np.arange(ent_order.size)
    rel_id = np.empty_like(rel_order)
    rel_id[rel_order] = np.arange(rel_order.size)
    out = {}
    for split, q in synth.facts.items():
        out[split] = np.stack(
            [ent_id[q[:, 0]], rel_id[q[:, 1]], ent_id[q[:, 2]], q[:, 3]], axis=1)
    return out
