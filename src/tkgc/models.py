"""Complex tensor-factorisation scoring models over temporal knowledge graphs.

Three scorers share one algebraic shape: an entity-side left factor
``q = i (.) v`` (elementwise complex product), where ``v`` is a per-model
composite of relation and timestamp embeddings, reduced against a tail
embedding.  The composites are:

    tcomplex     v = j (.) t
    tntcomplex   v = j_temporal (.) t + j_static
    chronor      v = [j ; t] (.) j_rot   (concatenation along the rank axis)

The tail is the complex conjugate of the object embedding by default; ChronoR
can also score against the unconjugated object (``tail_conjugation=False``),
which reproduces the plain elementwise-product reading when embeddings are
real.

Checkpoint container layout (all little-endian):

    magic        8 bytes  b"TKGCKPT1"
    version      u32
    model        16 bytes padded ASCII tag
    rank, rank_relation, rank_time   u32 each
    n_entities, n_relations, n_timestamps  u32 each
    seed         u64
    precision    8 bytes padded ASCII ("float64"/"float32")
    tail_conj    u8, pad 3 bytes
    reg_variant  16 bytes padded ASCII (recurrent generator tag, empty if none)
    dataset_hash 64 bytes ASCII hex (zero-filled when unknown)
    n_tables     u32
    directory    n_tables x { name 24 bytes, rows u64, cols u64 }
    data         float64 arrays concatenated in directory order

The serialized float count of an aux-free checkpoint equals ``param_count``
for its model and vocabulary sizes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import cmul, complex_rank, rng_stream, row_blocks, scatter_add_rows

TCOMPLEX = "tcomplex"
TNTCOMPLEX = "tntcomplex"
CHRONOR = "chronor"
MODEL_TAGS = (TCOMPLEX, TNTCOMPLEX, CHRONOR)

# Each model's embedding tables in init-draw and serialization order:
# (name, rows: Entities/Relations/Timestamps, ModelSpec field giving the
# complex width).
_TABLES = {
    TCOMPLEX: (
        ("entity", "E", "rank"), ("relation", "R", "rank"),
        ("timestamp", "T", "time_rank"),
    ),
    TNTCOMPLEX: (
        ("entity", "E", "rank"), ("relation", "R", "rank"),
        ("relation_temporal", "R", "rank"), ("timestamp", "T", "time_rank"),
    ),
    CHRONOR: (
        ("entity", "E", "rank"), ("relation", "R", "rank_relation"),
        ("rotation", "R", "rank"), ("timestamp", "T", "time_rank"),
    ),
}

CHECKPOINT_MAGIC = b"TKGCKPT1"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<8sI16sIIIIIIQ8sB3x16s64sI")
_TABLE_ENTRY = struct.Struct("<24sQQ")


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint container is malformed or incompatible."""


@dataclass(frozen=True)
class ModelSpec:
    """Which scorer to build and at what rank.

    ``rank`` is the number of complex components per embedding.  ChronoR
    splits it into a relation part ``rank_relation`` and a time part
    ``rank_time`` (default: an even split); the other models use the full rank
    for both relations and timestamps.
    """

    model: str
    rank: int
    rank_relation: Optional[int] = None
    rank_time: Optional[int] = None
    tail_conjugation: bool = True

    def __post_init__(self) -> None:
        if self.model not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.model == CHRONOR:
            if self.rank_relation is None and self.rank_time is None:
                if self.rank % 2 != 0:
                    raise ValueError(
                        "chronor needs an even rank for the default even split"
                    )
                object.__setattr__(self, "rank_relation", self.rank // 2)
                object.__setattr__(self, "rank_time", self.rank // 2)
            elif self.rank_relation is None or self.rank_time is None:
                raise ValueError("set both rank_relation and rank_time or neither")
            # rank_time == 0 is allowed: it disables the time block entirely.
            if self.rank_relation < 1 or self.rank_time < 0:
                raise ValueError("chronor needs rank_relation >= 1 and rank_time >= 0")
            if self.rank_relation + self.rank_time != self.rank:
                raise ValueError("chronor split must satisfy d_j + d_t = d")
        else:
            object.__setattr__(self, "rank_relation", self.rank)
            object.__setattr__(self, "rank_time", self.rank)

    @property
    def time_rank(self) -> int:
        return self.rank_time

    def table_shapes(
        self, n_entities: int, n_relations: int, n_timestamps: int
    ) -> dict[str, tuple[int, int]]:
        """Storage shape of each embedding table, in declaration order."""
        rows = {"E": n_entities, "R": n_relations, "T": n_timestamps}
        return {name: (rows[axis], 2 * getattr(self, width))
                for name, axis, width in _TABLES[self.model]}


@dataclass
class ModelParams:
    """Embedding tables (split-half complex storage) plus optional auxiliary
    parameters owned by the temporal regularizer (Linear3 bias, recurrent
    generator).

    Scoring reads tables concurrently without locking; mutation happens only
    inside an optimizer step that has exclusive access.
    """

    spec: ModelSpec
    entity: np.ndarray
    relation: np.ndarray
    timestamp: np.ndarray
    relation_temporal: Optional[np.ndarray] = None
    rotation: Optional[np.ndarray] = None
    linear3_bias: Optional[np.ndarray] = None
    recurrent: Optional[object] = None  # regularizers.RecurrentParams

    def __post_init__(self) -> None:
        self.validate_shapes()

    def validate_shapes(self) -> None:
        for name, shape in self.spec.table_shapes(
            self.n_entities, self.n_relations, self.n_timestamps
        ).items():
            arr = getattr(self, name)
            if arr is None or arr.shape != shape:
                raise ValueError(
                    f"{name} table has shape "
                    f"{None if arr is None else arr.shape}, expected {shape}"
                )

    @property
    def n_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation.shape[0]

    @property
    def n_timestamps(self) -> int:
        return self.timestamp.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.entity.dtype

    def model_tables(self) -> dict[str, np.ndarray]:
        """Embedding tables in their declared serialization order."""
        return {name: getattr(self, name) for name, _, _ in _TABLES[self.spec.model]}

    def named_tensors(self) -> dict[str, np.ndarray]:
        """All trainable tensors: model tables then auxiliary parameters."""
        tensors = self.model_tables()
        if self.linear3_bias is not None:
            tensors["linear3_bias"] = self.linear3_bias
        if self.recurrent is not None:
            tensors.update(self.recurrent.named_tensors())
        return tensors

    def first_nonfinite(self) -> Optional[str]:
        """Name of the first trainable tensor holding a NaN or an infinity."""
        for name, arr in self.named_tensors().items():
            if not np.isfinite(arr).all():
                return name
        return None

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        if name.startswith("rnn."):
            self.recurrent.set_tensor(name, value)
        else:
            setattr(self, name, value)

    def copy(self) -> "ModelParams":
        return ModelParams(
            spec=self.spec,
            **{name: arr.copy() for name, arr in self.model_tables().items()},
            linear3_bias=(
                None if self.linear3_bias is None else self.linear3_bias.copy()
            ),
            recurrent=None if self.recurrent is None else self.recurrent.copy(),
        )


def init_params(
    spec: ModelSpec,
    n_entities: int,
    n_relations: int,
    n_timestamps: int,
    seed: int,
    scale: float = 1e-2,
    dtype=np.float64,
    rng: Optional[np.random.Generator] = None,
) -> ModelParams:
    """Gaussian(0, scale^2) tables from the deterministic "init" sub-stream.

    ``n_relations`` is the working relation count, i.e. the reciprocal-
    augmented size when training with reciprocal facts.  Passing ``rng``
    continues an existing stream (the training engine draws auxiliary
    regularizer parameters from the same one, after the tables).
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if rng is None:
        rng = rng_stream(seed, "init")

    tables = {}
    for name, shape in spec.table_shapes(
        n_entities, n_relations, n_timestamps
    ).items():
        table = rng.standard_normal(shape)
        table *= scale
        tables[name] = table.astype(dtype, copy=False)
    return ModelParams(spec=spec, **tables)


def param_count(
    spec: ModelSpec, n_entities: int, n_base_relations: int, n_timestamps: int
) -> int:
    """Serialized float count of the model tables.

    ``n_base_relations`` is the pre-reciprocal relation count; the tables are
    sized for 2x that many relations.  TComplEx counts 2d(E + T + 2R) and
    TNTComplEx 2d(E + T + 4R).  ChronoR (entity E x 2d, relation 2R x 2d_j,
    rotation 2R x 2d, timestamp T x 2d_t) is below the TNTComplEx figure
    whenever d_t < d.
    """
    shapes = spec.table_shapes(n_entities, 2 * n_base_relations, n_timestamps)
    return sum(rows * cols for rows, cols in shapes.values())


# ---------------------------------------------------------------------------
# Scoring.
# ---------------------------------------------------------------------------


def _check_ids(idx: np.ndarray, bound: int, what: str) -> np.ndarray:
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise IndexError(f"{what} id out of range [0, {bound})")
    return idx


def _cmul_conj(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g (.) conj(b): the backward rule through one complex Hadamard factor."""
    d = complex_rank(g)
    b = np.broadcast_to(b, g.shape)
    out = np.empty_like(g)
    for rows in row_blocks(g.shape):
        gr, gi = g[rows][..., :d], g[rows][..., d:]
        br, bi = b[rows][..., :d], b[rows][..., d:]
        re, im = out[rows][..., :d], out[rows][..., d:]
        np.multiply(gr, br, out=re)
        re += gi * bi
        np.multiply(gi, br, out=im)
        im -= gr * bi
    return out


def _concat_complex(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    da, db = complex_rank(a), complex_rank(b)
    return np.concatenate(
        [a[..., :da], b[..., :db], a[..., da:], b[..., db:]], axis=-1
    )


def relation_factor(
    params: ModelParams,
    relations: np.ndarray,
    timestamps: np.ndarray,
    time_table: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, dict]:
    """Per-query composite relation/time factor ``v`` (B, 2d) plus the
    intermediates needed to push gradients back through it."""
    spec = params.spec
    relations = _check_ids(relations, params.n_relations, "relation")
    timestamps = _check_ids(timestamps, params.n_timestamps, "timestamp")
    table = params.timestamp if time_table is None else time_table
    t = table[timestamps]
    cache = {"relations": relations, "timestamps": timestamps, "t": t}
    if spec.model == TCOMPLEX:
        j = params.relation[relations]
        cache["j"] = j
        return cmul(j, t), cache
    if spec.model == TNTCOMPLEX:
        jt = params.relation_temporal[relations]
        js = params.relation[relations]
        cache["jt"] = jt
        v = cmul(jt, t)
        v += js
        return v, cache
    j = params.relation[relations]
    rot = params.rotation[relations]
    base = _concat_complex(j, t)
    cache["rot"] = rot
    cache["base"] = base
    return cmul(base, rot), cache


def relation_factor_backward(
    params: ModelParams,
    cache: dict,
    grad_v: np.ndarray,
    grads: dict[str, np.ndarray],
    grad_time: np.ndarray,
) -> None:
    """Scatter the gradient of the composite factor into the relation-table
    gradients (``grads``) and the effective time-table gradient."""
    spec = params.spec
    relations = cache["relations"]
    timestamps = cache["timestamps"]
    t = cache["t"]
    if spec.model == TCOMPLEX:
        scatter_add_rows(grads["relation"], relations, _cmul_conj(grad_v, t))
        scatter_add_rows(grad_time, timestamps, _cmul_conj(grad_v, cache["j"]))
    elif spec.model == TNTCOMPLEX:
        scatter_add_rows(grads["relation"], relations, grad_v)
        scatter_add_rows(
            grads["relation_temporal"], relations, _cmul_conj(grad_v, t)
        )
        scatter_add_rows(
            grad_time, timestamps, _cmul_conj(grad_v, cache["jt"])
        )
    else:
        d_j, d = spec.rank_relation, spec.rank
        scatter_add_rows(
            grads["rotation"], relations, _cmul_conj(grad_v, cache["base"])
        )
        g_base = _cmul_conj(grad_v, cache["rot"])
        g_rel = np.concatenate(
            [g_base[..., :d_j], g_base[..., d:d + d_j]], axis=-1
        )
        g_time = np.concatenate(
            [g_base[..., d_j:d], g_base[..., d + d_j:]], axis=-1
        )
        scatter_add_rows(grads["relation"], relations, g_rel)
        scatter_add_rows(grad_time, timestamps, g_time)


def tail_matrix(params: ModelParams) -> np.ndarray:
    """Entity table with the imaginary half negated unless the tail is
    conjugated: scores are then ``q @ tail_matrix().T`` in both modes."""
    if params.spec.tail_conjugation:
        return params.entity
    d = params.spec.rank
    out = params.entity.copy()
    out[:, d:] = -out[:, d:]
    return out


def score_batch(
    params: ModelParams,
    quads: np.ndarray,
    time_table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pointwise scores for an (n, 4) array of quadruples."""
    quads = np.asarray(quads)
    if quads.ndim == 1:
        quads = quads[None, :]
    subjects = _check_ids(quads[:, 0], params.n_entities, "entity")
    objects = _check_ids(quads[:, 2], params.n_entities, "entity")
    v, _ = relation_factor(params, quads[:, 1], quads[:, 3], time_table)
    q = cmul(params.entity[subjects], v)
    tails = tail_matrix(params)[objects]
    return np.sum(q * tails, axis=-1)


def score(params: ModelParams, quad) -> float:
    """Score one quadruple with whichever model ``params`` carries."""
    return float(score_batch(params, np.asarray(quad, dtype=np.int64))[0])


def score_all_objects_batch(
    params: ModelParams,
    subjects: np.ndarray,
    relations: np.ndarray,
    timestamps: np.ndarray,
    time_table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(B, |E|) score matrix: left factors built once, then one matmul
    against the entity table."""
    subjects = _check_ids(subjects, params.n_entities, "entity")
    v, _ = relation_factor(params, relations, timestamps, time_table)
    q = cmul(params.entity[subjects], v)
    return q @ tail_matrix(params).T


def score_all_objects(
    params: ModelParams,
    subject: int,
    relation: int,
    timestamp: int,
    time_table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scores of (subject, relation, k, timestamp) for every entity k."""
    return score_all_objects_batch(
        params,
        np.array([subject]),
        np.array([relation]),
        np.array([timestamp]),
        time_table,
    )[0]


# ---------------------------------------------------------------------------
# Checkpoint I/O.
# ---------------------------------------------------------------------------


def _pad(tag: str, width: int) -> bytes:
    raw = tag.encode("ascii")
    if len(raw) > width:
        raise ValueError(f"tag {tag!r} longer than {width} bytes")
    return raw.ljust(width, b"\x00")


def _unpad(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("ascii")


def save_checkpoint(
    params: ModelParams,
    path,
    seed: int = 0,
    dataset_hash: str = "",
    precision: Optional[str] = None,
    manifest_extra: Optional[dict] = None,
) -> None:
    """Write the binary checkpoint plus its human-readable sidecar manifest
    (``<path>.manifest``)."""
    spec = params.spec
    tensors = params.named_tensors()
    precision = precision or str(params.dtype)
    variant = params.recurrent.variant if params.recurrent is not None else ""
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                _pad(spec.model, 16),
                spec.rank,
                spec.rank_relation,
                spec.rank_time,
                params.n_entities,
                params.n_relations,
                params.n_timestamps,
                seed,
                _pad(precision, 8),
                1 if spec.tail_conjugation else 0,
                _pad(variant, 16),
                _pad(dataset_hash, 64),
                len(tensors),
            )
        )
        for name, arr in tensors.items():
            rows, cols = (arr.shape if arr.ndim == 2 else (1, arr.shape[0]))
            fh.write(_TABLE_ENTRY.pack(_pad(name, 24), rows, cols))
        for arr in tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    lines = [
        f"model = {spec.model}",
        f"rank = {spec.rank}",
        f"rank_relation = {spec.rank_relation}",
        f"rank_time = {spec.rank_time}",
        f"tail_conjugation = {spec.tail_conjugation}",
        f"entities = {params.n_entities}",
        f"relations = {params.n_relations}",
        f"timestamps = {params.n_timestamps}",
        f"seed = {seed}",
        f"precision = {precision}",
        f"dataset_hash = {dataset_hash}",
        f"float_count = {sum(a.size for a in tensors.values())}",
    ]
    for name, arr in tensors.items():
        lines.append(f"shape.{name} = {'x'.join(str(s) for s in arr.shape)}")
    for key, value in (manifest_extra or {}).items():
        lines.append(f"{key} = {value}")
    with open(f"{path}.manifest", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint_header(path) -> dict:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:8] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint container")
        (
            _, version, model, rank, rank_rel, rank_time,
            n_ent, n_rel, n_ts, seed, precision, tail_conj, variant,
            ds_hash, n_tables,
        ) = _HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        # Check the size before reading: a corrupt count would otherwise
        # make the read allocate up to ~171 GB.
        dir_size = n_tables * _TABLE_ENTRY.size
        if os.fstat(fh.fileno()).st_size < _HEADER.size + dir_size:
            raise CheckpointFormatError(f"{path}: truncated table directory")
        directory = fh.read(dir_size)
        tables = [
            (_unpad(name), int(rows), int(cols))
            for name, rows, cols in _TABLE_ENTRY.iter_unpack(directory)
        ]
    return {
        "model": _unpad(model),
        "rank": rank,
        "rank_relation": rank_rel,
        "rank_time": rank_time,
        "n_entities": n_ent,
        "n_relations": n_rel,
        "n_timestamps": n_ts,
        "seed": seed,
        "precision": _unpad(precision),
        "tail_conjugation": bool(tail_conj),
        "recurrent_variant": _unpad(variant),
        "dataset_hash": _unpad(ds_hash),
        "tables": tables,
    }


def checkpoint_float_count(path) -> int:
    header = read_checkpoint_header(path)
    return sum(rows * cols for _, rows, cols in header["tables"])


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    header = read_checkpoint_header(path)
    dtype = np.dtype(header["precision"])
    offset = _HEADER.size + len(header["tables"]) * _TABLE_ENTRY.size
    floats = sum(rows * cols for _, rows, cols in header["tables"])
    expected = offset + 8 * floats
    tensors = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise CheckpointFormatError(f"{path}: truncated table data")
        if size > expected:
            raise CheckpointFormatError(f"{path}: trailing bytes in container")
        fh.seek(offset)
        for name, rows, cols in header["tables"]:
            raw = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
            tensors[name] = raw.reshape(rows, cols).astype(dtype)
    # The other models ignore the stored split and use the full rank.
    spec = ModelSpec(
        model=header["model"],
        rank=header["rank"],
        rank_relation=header["rank_relation"],
        rank_time=header["rank_time"],
        tail_conjugation=header["tail_conjugation"],
    )
    missing = [name for name, _, _ in _TABLES[spec.model] if name not in tensors]
    if missing:
        raise CheckpointFormatError(f"{path}: missing tables {missing}")
    recurrent = None
    if header["recurrent_variant"]:
        from .regularizers import RecurrentParams

        recurrent = RecurrentParams.from_tensors(
            header["recurrent_variant"],
            {k: v for k, v in tensors.items() if k.startswith("rnn.")},
        )
    params = ModelParams(
        spec=spec,
        **{name: tensors[name] for name, _, _ in _TABLES[spec.model]},
        linear3_bias=(
            tensors["linear3_bias"][0] if "linear3_bias" in tensors else None
        ),
        recurrent=recurrent,
    )
    return params, header
