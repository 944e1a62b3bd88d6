"""Shared domain types: quadruples, vocabularies, dataset splits, and the
split-half storage convention for complex embedding vectors.

A complex vector of rank ``d`` is stored as ``2d`` contiguous reals: all real
parts first, then all imaginary parts.  Every table in the package is a
``(rows, 2d)`` float array following this layout.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

# Reserved timestamp slot for facts without a date (index 0 when present).
NO_TIME_INDEX = 0
NO_TIME_LABEL = "<no-time>"

# Named sub-streams so that every source of randomness is derived from the
# single run seed but stays independent of the others.
_RNG_STREAMS = {"init": 0, "shuffle": 1, "gradcheck": 2, "data": 3}


def rng_stream(seed: int, stream: str) -> np.random.Generator:
    """Deterministic generator for one of the named randomness sub-streams."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_RNG_STREAMS[stream],))
    )


def inverse_relation(relation: int | np.ndarray, n_relations: int):
    """Inverse of a relation id, or elementwise of an id array, in a
    reciprocal-augmented space: id ``r`` inverts to ``r + n/2`` and back."""
    if n_relations % 2 != 0:
        raise ValueError("reciprocal relation space must have an even size")
    return (relation + n_relations // 2) % n_relations


@dataclass
class Vocabulary:
    """Bidirectional string<->id maps for entities, relations and timestamps.

    Entity and relation ids follow first-seen order; timestamp ids follow
    chronological order of the underlying dates.  When ``has_no_time`` is set,
    slot ``NO_TIME_INDEX`` (0) is the reserved label for undated facts and the
    chronological timestamps start at index 1.
    """

    entities: list[str]
    relations: list[str]
    timestamps: list[str]
    has_no_time: bool = False
    entity_ids: dict[str, int] = field(init=False, repr=False)
    relation_ids: dict[str, int] = field(init=False, repr=False)
    timestamp_ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.entity_ids = {s: i for i, s in enumerate(self.entities)}
        self.relation_ids = {s: i for i, s in enumerate(self.relations)}
        self.timestamp_ids = {s: i for i, s in enumerate(self.timestamps)}
        for name, forward, reverse in (
            ("entities", self.entities, self.entity_ids),
            ("relations", self.relations, self.relation_ids),
            ("timestamps", self.timestamps, self.timestamp_ids),
        ):
            if len(forward) != len(reverse):
                raise ValueError(f"duplicate strings in {name} vocabulary")
        if self.has_no_time and self.timestamps[NO_TIME_INDEX] != NO_TIME_LABEL:
            raise ValueError("no-time vocabulary must reserve index 0")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def n_timestamps(self) -> int:
        return len(self.timestamps)

    def entity_id(self, name: str) -> int:
        return self.entity_ids[name]

    def relation_id(self, name: str) -> int:
        return self.relation_ids[name]

    def timestamp_id(self, name: str) -> int:
        return self.timestamp_ids[name]

    def content_hash(self) -> str:
        """Stable hash of the full vocabulary content (used for compat checks)."""
        h = hashlib.sha256()
        for part in (self.entities, self.relations, self.timestamps):
            h.update(str(len(part)).encode())
            for s in part:
                h.update(s.encode("utf-8"))
                h.update(b"\x00")
        h.update(b"no-time" if self.has_no_time else b"timed")
        return h.hexdigest()


@dataclass
class DatasetSplits:
    """Encoded train/valid/test splits over one vocabulary.

    Each split is an ``(n, 4)`` int32 array of (subject, relation, object,
    timestamp) ids.  ``reciprocal`` records whether the relation space has been
    augmented with inverse relations (see ``datasets.augment_reciprocal``).
    """

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    vocabulary: Vocabulary
    reciprocal: bool = False

    def __post_init__(self) -> None:
        for name in ("train", "valid", "test"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int32)
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise ValueError(f"{name} split must have shape (n, 4)")
            setattr(self, name, arr)

    def splits(self) -> dict[str, np.ndarray]:
        return {"train": self.train, "valid": self.valid, "test": self.test}

    @property
    def n_base_relations(self) -> int:
        n = self.vocabulary.n_relations
        return n // 2 if self.reciprocal else n

    def content_hash(self) -> str:
        """Stable hash of the three splits and the vocabulary."""
        h = hashlib.sha256(self.vocabulary.content_hash().encode())
        for arr in self.splits().values():
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Split-half complex vector helpers.
# ---------------------------------------------------------------------------


def complex_rank(storage: np.ndarray) -> int:
    width = storage.shape[-1]
    if width % 2 != 0:
        raise ValueError("split-half storage must have an even width")
    return width // 2


def to_complex(storage: np.ndarray) -> np.ndarray:
    """View split-half storage as an ``np.complex128`` array of rank d."""
    d = complex_rank(storage)
    return storage[..., :d] + 1j * storage[..., d:]


def from_complex(z: np.ndarray) -> np.ndarray:
    """Inverse of ``to_complex``: pack a complex array into split-half reals."""
    z = np.asarray(z, dtype=np.complex128)
    return np.concatenate([z.real, z.imag], axis=-1)


def conjugate(storage: np.ndarray) -> np.ndarray:
    """Complex conjugate in split-half storage: the imaginary half is negated."""
    d = complex_rank(storage)
    out = np.array(storage, copy=True)
    out[..., d:] = -out[..., d:]
    return out


# Floats per operand block in the blocked elementwise kernels: a block of
# every operand and temporary stays in cache across the kernel's passes.
BLOCK_FLOATS = 1 << 16


def row_blocks(shape: tuple[int, ...]) -> list:
    """Indices that split an array of ``shape`` along its leading axis into
    blocks of about ``BLOCK_FLOATS`` floats; a vector is a single block."""
    if len(shape) < 2:
        return [slice(None)]
    step = max(1, BLOCK_FLOATS // max(math.prod(shape[1:]), 1))
    return [slice(start, start + step) for start in range(0, shape[0], step)]


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex (Hadamard) product of two split-half arrays."""
    d = complex_rank(a)
    if complex_rank(b) != d:
        raise ValueError(f"rank mismatch: {complex_rank(a)} vs {complex_rank(b)}")
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    for rows in row_blocks(out.shape):
        ar, ai = a[rows][..., :d], a[rows][..., d:]
        br, bi = b[rows][..., :d], b[rows][..., d:]
        re, im = out[rows][..., :d], out[rows][..., d:]
        np.multiply(ar, br, out=re)
        re -= ai * bi
        np.multiply(ar, bi, out=im)
        im += ai * br
    return out


def complex_moduli(storage: np.ndarray) -> np.ndarray:
    """Per-component complex moduli of split-half storage, (..., 2d) ->
    (..., d)."""
    d = complex_rank(storage)
    out = np.empty(storage.shape[:-1] + (d,), dtype=storage.dtype)
    for rows in row_blocks(storage.shape):
        re, im, m = storage[rows][..., :d], storage[rows][..., d:], out[rows]
        np.multiply(re, re, out=m)
        m += im * im
        np.sqrt(m, out=m)
    return out


def scatter_add_rows(
    target: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> None:
    """``target[rows[i]] += values[i]`` for every i in order, duplicate rows
    summed: the result of ``np.add.at(target, rows, values)``, bit for bit.

    Rows are added one contiguous vector at a time, which at a few hundred
    floats per row and more beats ``np.add.at``'s per-element indexing by
    5-13x.
    """
    for row, value in zip(rows.tolist(), values):
        target[row] += value


def complex_trilinear(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
    """Tri-linear dot product sum_z a_z * b_z * c_z over complex arithmetic.

    Inputs are split-half storage vectors of equal rank; the caller takes the
    real part when a real-valued score is needed.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if not (a.shape == b.shape == c.shape) or a.ndim != 1:
        raise ValueError(
            f"complex_trilinear needs three equal-length vectors, got shapes "
            f"{a.shape}, {b.shape}, {c.shape}"
        )
    prod = to_complex(cmul(cmul(a, b), c))
    return complex(prod.sum())
