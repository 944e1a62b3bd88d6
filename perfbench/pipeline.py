"""What the benchmark times, through the public ``tkgc`` API: ingest ICEWS
text, set up a dataset and a checkpoint, train, evaluate.  Also the
correctness checks that fail a run.

Every workload runs every stage, at its own shape; the stage a workload is
named after gets most of the measured time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import synth
import tkgc
from tkgc import ModelSpec, TemporalRegSpec, TrainConfig
from tkgc.core import DatasetSplits
from tkgc.models import ModelParams

BATCH = 1000
EPOCHS = 2
SETUP_REPS = 3
ORACLE_QUADS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    rank: int
    reg: TemporalRegSpec
    train_batches: int  # distinct 1000-fact batches per train() call
    eval_quads: Optional[int]  # test quadruples per eval pass; None = all
    shares: dict[str, float]  # stage -> share of the measured seconds
    min_reps: dict[str, int]


N4 = TemporalRegSpec(family="N", p=4)
LSTM8 = TemporalRegSpec(family="recurrent", variant="lstm", hidden_size=8)

WORKLOADS = {
    w.name: w for w in (
        # The paper's headline configuration: GEMM-bound, with dense Adam over
        # entity tables far larger than the last-level cache.
        Workload("train-icews14-d2000", "icews14", 2000, N4, 2, None,
                 {"ingest": 0.1, "train": 0.75, "eval": 0.15},
                 {"ingest": 3, "train": 2, "eval": 2}),
        # Per-timestep Python recurrence over 4017 days; the entity table
        # fits in cache and the |E|-wide softmax is wider than at ICEWS14.
        Workload("train-icews05-15-lstm", "icews05-15", 200, LSTM8, 3, 8000,
                 {"ingest": 0.0, "train": 0.85, "eval": 0.15},
                 {"ingest": 1, "train": 3, "eval": 2}),
        # Read-only use of the scoring path training writes through, plus
        # the full ingest, filter-index and checkpoint costs.
        Workload("eval-icews05-15", "icews05-15", 200, N4, 4, None,
                 {"ingest": 0.1, "train": 0.25, "eval": 0.65},
                 {"ingest": 2, "train": 4, "eval": 2}),
    )
}


@dataclass
class Prepared:
    """Untimed inputs: the synthetic facts, their text files, the planted
    checkpoint and what an ingest of the text must produce."""

    synthetic: synth.Synthetic
    text: dict[str, Path]
    expected: dict[str, np.ndarray]
    checkpoint: Path
    dataset: Path

    @property
    def n_facts(self) -> int:
        return self.synthetic.shape.facts


@dataclass
class Ledger:
    """Operations attempted and failed (a step, a query, an ingested split),
    with a message per failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def attempt(self, n: int) -> None:
        self.attempted += n

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        self.problems.append(message)


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    synthetic = synth.generate(synth.SHAPES[workload.shape], seed)
    text = synth.write_icews(synthetic, workdir)
    ent_order, rel_order = synth.ingest_order(synthetic)
    n_rel = synthetic.shape.relations
    rel_rows = np.concatenate([rel_order, rel_order + n_rel])
    relation_temporal = synthetic.relation_temporal[rel_rows]
    planted = ModelParams(
        spec=ModelSpec(model="tntcomplex", rank=synth.RANK),
        entity=synthetic.entity[ent_order],
        relation=np.zeros_like(relation_temporal),
        relation_temporal=relation_temporal,
        timestamp=synthetic.timestamp,
    )
    checkpoint = workdir / "planted.ckpt"
    tkgc.save_checkpoint(planted, checkpoint, seed=seed)
    return Prepared(synthetic, text, synth.encode(synthetic), checkpoint,
                    workdir / "ingested.tkg")


def repeat(fn: Callable[[], object], min_reps: int, budget_s: float,
           on_result: Callable[[object], None] = lambda result: None):
    """Call ``fn`` until it has run ``min_reps`` times and ``budget_s``
    seconds have passed.  ``on_result`` sees each result outside the timed
    region.  Returns the seconds per call and the last result."""
    seconds = []
    started = time.perf_counter()
    result = None
    while len(seconds) < min_reps or time.perf_counter() - started < budget_s:
        result = None  # release the previous result before timing the next
        t0 = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - t0)
        on_result(result)
    return seconds, result


# ---------------------------------------------------------------------------
# Stages.  Each ``*_once`` function times exactly the library calls a user
# waits for; checks run outside the timed region.
# ---------------------------------------------------------------------------


def ingest_once(prep: Prepared) -> DatasetSplits:
    raw = {}
    for split, path in prep.text.items():
        with open(path, encoding="utf-8") as fh:
            raw[split] = tkgc.parse_icews(fh)
    splits = tkgc.build_dataset(raw["train"], raw["valid"], raw["test"])
    tkgc.save_dataset(splits, prep.dataset)
    return splits


def check_ingest(prep: Prepared, splits: DatasetSplits, ledger: Ledger) -> None:
    ledger.attempt(len(synth.SPLITS))
    for split in synth.SPLITS:
        if not np.array_equal(splits.splits()[split], prep.expected[split]):
            ledger.fail(1, f"ingest: {split} split differs from the input facts")
    shape = prep.synthetic.shape
    vocab = splits.vocabulary
    sizes = (vocab.n_entities, vocab.n_relations, vocab.n_timestamps)
    if sizes != (shape.entities, shape.relations, shape.timestamps):
        ledger.fail(1, f"ingest: vocabulary sizes {sizes} differ from Table 1")


@dataclass
class Ready:
    loaded: DatasetSplits
    splits: DatasetSplits  # reciprocal-augmented
    filter_index: object
    params: ModelParams


def setup_once(prep: Prepared) -> Ready:
    loaded = tkgc.load_dataset(prep.dataset)
    splits = tkgc.augment_reciprocal(loaded)
    filter_index = tkgc.build_filter_index(splits)
    params, _ = tkgc.load_checkpoint(prep.checkpoint)
    return Ready(loaded, splits, filter_index, params)


def check_setup(ingested: DatasetSplits, ready: Ready, ledger: Ledger) -> None:
    for split, arr in ingested.splits().items():
        if not np.array_equal(ready.loaded.splits()[split], arr):
            ledger.fail(1, f"load_dataset: {split} split differs from ingest")
    a, b = ingested.vocabulary, ready.loaded.vocabulary
    if (a.entities, a.relations, a.timestamps, a.has_no_time) != (
            b.entities, b.relations, b.timestamps, b.has_no_time):
        ledger.fail(1, "load_dataset: vocabulary differs from ingest")


def train_inputs(workload: Workload, ready: Ready, seed: int):
    """The training split cut to a fixed number of batches, and the config."""
    splits = ready.splits
    rows = np.random.default_rng(seed).permutation(splits.train.shape[0])
    cut = DatasetSplits(
        train=splits.train[rows[: workload.train_batches * BATCH]],
        valid=splits.valid, test=splits.test,
        vocabulary=splits.vocabulary, reciprocal=True,
    )
    config = TrainConfig(
        model=ModelSpec(model="tntcomplex", rank=workload.rank),
        reg=workload.reg, lambda1=1e-3, lambda2=1e-2, batch_size=BATCH,
        epochs=EPOCHS, eval_every=0, seed=seed,
    )
    return cut, config


def train_once(cut: DatasetSplits, config: TrainConfig) -> list[float]:
    _, history = tkgc.train(cut, config)
    return [record["train_loss"] for record in history]


def check_train(losses_per_call: list[list[float]], n_entities: int,
                steps_per_call: int, ledger: Ledger) -> None:
    ledger.attempt(steps_per_call * len(losses_per_call))
    for losses in losses_per_call:
        if not all(math.isfinite(x) for x in losses):
            ledger.fail(steps_per_call, f"train: non-finite loss {losses}")
        elif losses[-1] >= math.log(n_entities):
            ledger.fail(steps_per_call,
                        f"train: final loss {losses[-1]} >= ln|E| "
                        f"{math.log(n_entities)}")
    if any(losses != losses_per_call[0] for losses in losses_per_call):
        ledger.fail(0, "train: same seed gave different losses")


def eval_once(ready: Ready, quads: np.ndarray):
    return tkgc.evaluate(ready.params, quads, ready.filter_index)


def check_eval(mrrs: list[float], ledger: Ledger) -> None:
    if any(m != mrrs[0] for m in mrrs):
        ledger.fail(0, "evaluate: repeated passes gave different MRR")


# ---------------------------------------------------------------------------
# Brute-force oracle for filtered ranks.
# ---------------------------------------------------------------------------


def _to_complex(table: np.ndarray) -> np.ndarray:
    d = table.shape[1] // 2
    return table[:, :d] + 1j * table[:, d:]


def oracle_ranks(synthetic: synth.Synthetic, quads: np.ndarray) -> np.ndarray:
    """Pessimistic filtered ranks (right, left) of planted-id quadruples,
    from dense complex scores of the planted TNTComplEx tables and a filter
    taken from the raw facts of all three splits."""
    entity = _to_complex(synthetic.entity)
    relation = _to_complex(synthetic.relation_temporal)
    timestamp = _to_complex(synthetic.timestamp)
    n_rel = synthetic.shape.relations
    facts = np.concatenate([synthetic.facts[s] for s in synth.SPLITS])
    ranks = np.empty((quads.shape[0], 2), dtype=np.int64)
    for i, (s, r, o, t) in enumerate(quads.tolist()):
        for direction, (head, rel, answer, key_col, ans_col) in enumerate(
                ((s, r, o, 0, 2), (o, r + n_rel, s, 2, 0))):
            # score(h, j, x, t) = Re(sum_k h_k j_k t_k conj(x_k))
            factor = entity[head] * relation[rel] * timestamp[t]
            scores = (entity.conj() @ factor).real
            same_key = ((facts[:, key_col] == head) & (facts[:, 1] == r)
                        & (facts[:, 3] == t))
            known = np.zeros(entity.shape[0], dtype=bool)
            known[facts[same_key, ans_col]] = True
            known[answer] = True
            ranks[i, direction] = 1 + np.count_nonzero(
                scores[~known] >= scores[answer])
    return ranks


def check_oracle(prep: Prepared, ready: Ready, seed: int,
                 ledger: Ledger) -> None:
    test = prep.synthetic.facts["test"]
    sample = np.random.default_rng([seed, 1]).choice(
        test.shape[0], size=min(ORACLE_QUADS, test.shape[0]), replace=False)
    expected = oracle_ranks(prep.synthetic, test[sample])
    encoded = prep.expected["test"][sample]
    ledger.attempt(2 * sample.size)
    for i in range(sample.size):
        metrics = eval_once(ready, encoded[i: i + 1])
        for direction, name in enumerate(("right", "left")):
            got = 1.0 / metrics.by_direction[name].mrr
            if abs(got - expected[i, direction]) > 1e-6:
                ledger.fail(1, f"oracle: {name} query of test row "
                               f"{int(sample[i])} ranked {got}, brute force "
                               f"{int(expected[i, direction])}")


# ---------------------------------------------------------------------------
# One pass over every stage.
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    ingest_s: list[float]
    setup_s: list[float]
    train_s: list[float]
    eval_s: list[float]
    train_facts: int  # facts processed per train() call
    eval_queries: int  # queries ranked per evaluate() call
    loss_end: float
    mrr: float
    ready: Ready

    @property
    def total_s(self) -> float:
        return sum(sum(s) for s in (self.ingest_s, self.setup_s,
                                    self.train_s, self.eval_s))


def run_pass(workload: Workload, prep: Prepared, seed: int, ledger: Ledger,
             plan: Callable[[str], tuple[int, float]],
             on_ready: Callable[[Ready], None] = lambda ready: None) -> Pass:
    """Ingest, set up, train and evaluate; ``plan(stage)`` gives each stage's
    minimum repetitions and time budget."""
    ingest_s, ingested = repeat(
        lambda: ingest_once(prep), *plan("ingest"),
        on_result=lambda splits: check_ingest(prep, splits, ledger))
    setup_s, ready = repeat(
        lambda: setup_once(prep), *plan("setup"),
        on_result=lambda r: check_setup(ingested, r, ledger))
    on_ready(ready)

    cut, config = train_inputs(workload, ready, seed)
    losses: list[list[float]] = []
    train_s, _ = repeat(lambda: train_once(cut, config), *plan("train"),
                        on_result=losses.append)
    steps = EPOCHS * math.ceil(cut.train.shape[0] / BATCH)
    check_train(losses, ready.splits.vocabulary.n_entities, steps, ledger)

    test = ready.splits.test
    quads = test if workload.eval_quads is None else test[: workload.eval_quads]
    mrrs: list[float] = []
    eval_s, _ = repeat(lambda: eval_once(ready, quads), *plan("eval"),
                       on_result=lambda metrics: mrrs.append(metrics.mrr))
    ledger.attempt(2 * quads.shape[0] * len(eval_s))
    check_eval(mrrs, ledger)
    return Pass(ingest_s, setup_s, train_s, eval_s,
                EPOCHS * cut.train.shape[0], 2 * quads.shape[0],
                losses[0][-1], mrrs[0], ready)
