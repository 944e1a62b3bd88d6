import hashlib

import numpy as np
import pytest

from conftest import make_params, oracle_score
from tkgc.core import from_complex
from tkgc.models import (
    CHRONOR,
    TCOMPLEX,
    TNTCOMPLEX,
    CheckpointFormatError,
    ModelParams,
    ModelSpec,
    checkpoint_float_count,
    init_params,
    load_checkpoint,
    param_count,
    read_checkpoint_header,
    save_checkpoint,
    score,
    score_all_objects,
    score_batch,
)

MODELS = (TCOMPLEX, TNTCOMPLEX, CHRONOR)


def _unit_tcomplex(d=1):
    spec = ModelSpec(model=TCOMPLEX, rank=d)
    ones = np.zeros((2, 2 * d))
    ones[:, :d] = 1.0
    return ModelParams(
        spec=spec, entity=ones.copy(), relation=ones[:1].copy(),
        timestamp=ones[:1].copy(),
    )


class TestScoreTComplEx:
    def test_all_ones_identity(self):
        params = _unit_tcomplex()
        assert score(params, (0, 0, 1, 0)) == pytest.approx(1.0)

    def test_hand_complex_arithmetic(self):
        # i = i, j = 1, k = i, t = 1  ->  Re(i * 1 * conj(i) * 1) = 1
        spec = ModelSpec(model=TCOMPLEX, rank=1)
        params = ModelParams(
            spec=spec,
            entity=np.stack([from_complex(np.array([1j])),
                             from_complex(np.array([1j]))]),
            relation=from_complex(np.array([[1 + 0j]])),
            timestamp=from_complex(np.array([[1 + 0j]])),
        )
        assert score(params, (0, 0, 1, 0)) == pytest.approx(1.0)

    def test_zero_timestamp_annihilates(self):
        params = _unit_tcomplex()
        params.timestamp[:] = 0.0
        assert score(params, (0, 0, 1, 0)) == 0.0

    def test_id_out_of_range(self):
        params = _unit_tcomplex()
        with pytest.raises(IndexError):
            score(params, (0, 0, 5, 0))
        with pytest.raises(IndexError):
            score(params, (0, 0, 1, -1))


class TestScoreTNTComplEx:
    def test_zero_temporal_part_is_static_complex(self):
        rng = np.random.default_rng(1)
        params = make_params(TNTCOMPLEX, rng)
        params.relation_temporal[:] = 0.0
        quad = (1, 2, 3, 0)
        static = oracle_score(params, quad)
        for timestamp in range(params.n_timestamps):
            got = score(params, (1, 2, 3, timestamp))
            assert got == pytest.approx(static, rel=1e-12)

    def test_zero_static_part_matches_tcomplex(self):
        rng = np.random.default_rng(2)
        params = make_params(TNTCOMPLEX, rng)
        params.relation[:] = 0.0
        twin = ModelParams(
            spec=ModelSpec(model=TCOMPLEX, rank=params.spec.rank),
            entity=params.entity.copy(),
            relation=params.relation_temporal.copy(),
            timestamp=params.timestamp.copy(),
        )
        quad = (0, 1, 2, 3)
        assert score(params, quad) == pytest.approx(
            score(twin, quad), rel=1e-12
        )

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        params = make_params(TNTCOMPLEX, rng, rank=2)
        for _ in range(20):
            quad = (
                rng.integers(params.n_entities), rng.integers(params.n_relations),
                rng.integers(params.n_entities), rng.integers(params.n_timestamps),
            )
            assert score(params, quad) == pytest.approx(
                oracle_score(params, quad), rel=1e-12
            )

    def test_all_object_columns_identical_when_temporal_zero(self):
        rng = np.random.default_rng(4)
        params = make_params(TNTCOMPLEX, rng)
        params.relation_temporal[:] = 0.0
        first = score_all_objects(params, 0, 1, 0)
        for timestamp in range(1, params.n_timestamps):
            assert np.array_equal(first, score_all_objects(params, 0, 1, timestamp))


class TestScoreChronoR:
    def test_identity_rotation_reduces_to_inner_product(self):
        # d_t = 0 disables the time block; all-ones j and rotation leave i.
        spec = ModelSpec(model=CHRONOR, rank=2, rank_relation=2, rank_time=0)
        rng = np.random.default_rng(5)
        entity = rng.standard_normal((4, 4))
        ones = np.zeros((1, 4))
        ones[:, :2] = 1.0
        params = ModelParams(
            spec=spec, entity=entity, relation=ones.copy(),
            rotation=ones.copy(), timestamp=np.zeros((3, 0)),
        )
        got = score(params, (1, 0, 2, 0))
        expected = float(np.sum(entity[1] * entity[2]))  # Re(<i, conj k>)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_real_embeddings_hand_product(self):
        # d = 2 with d_j = d_t = 1, everything real: the score is
        # i0*j0*rot0*k0 + i1*t0*rot1*k1.
        spec = ModelSpec(model=CHRONOR, rank=2)
        def real2(a, b):
            return np.array([[a, b, 0.0, 0.0]])
        params = ModelParams(
            spec=spec,
            entity=np.vstack([real2(2.0, 3.0), real2(5.0, 7.0)]),
            relation=np.array([[11.0, 0.0]]),
            rotation=real2(13.0, 17.0),
            timestamp=np.array([[19.0, 0.0]]),
        )
        expected = 2.0 * 11.0 * 13.0 * 5.0 + 3.0 * 19.0 * 17.0 * 7.0
        assert score(params, (0, 0, 1, 0)) == pytest.approx(expected)

    def test_scaling_head_scales_score(self):
        rng = np.random.default_rng(6)
        params = make_params(CHRONOR, rng)
        quad = (2, 1, 3, 2)
        base = score(params, quad)
        params.entity[2] *= 2.5
        assert score(params, quad) == pytest.approx(2.5 * base, rel=1e-12)

    @pytest.mark.parametrize("conj", [True, False])
    def test_matches_scalar_oracle_both_tail_modes(self, conj):
        rng = np.random.default_rng(7)
        params = make_params(CHRONOR, rng, tail_conjugation=conj)
        for _ in range(20):
            quad = (
                rng.integers(params.n_entities), rng.integers(params.n_relations),
                rng.integers(params.n_entities), rng.integers(params.n_timestamps),
            )
            assert score(params, quad) == pytest.approx(
                oracle_score(params, quad), rel=1e-12
            )


class TestMultilinearity:
    @pytest.mark.parametrize("model", MODELS)
    def test_linear_in_head_and_tail(self, model):
        rng = np.random.default_rng(8)
        params = make_params(model, rng)
        quad = (0, 1, 2, 3)
        for row in (0, 2):
            e1 = rng.standard_normal(params.entity.shape[1])
            e2 = rng.standard_normal(params.entity.shape[1])
            a, b = rng.standard_normal(2)
            params.entity[row] = e1
            s1 = score(params, quad)
            params.entity[row] = e2
            s2 = score(params, quad)
            params.entity[row] = a * e1 + b * e2
            combined = score(params, quad)
            assert combined == pytest.approx(a * s1 + b * s2, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize(
        "model, table",
        [(TCOMPLEX, "relation"), (TCOMPLEX, "timestamp"), (CHRONOR, "rotation")],
    )
    def test_linear_in_pure_product_factors(self, model, table):
        rng = np.random.default_rng(9)
        params = make_params(model, rng)
        quad = (0, 1, 2, 3)
        arr = getattr(params, table)
        row = quad[3] if table == "timestamp" else quad[1]
        v1 = rng.standard_normal(arr.shape[1])
        v2 = rng.standard_normal(arr.shape[1])
        a, b = rng.standard_normal(2)
        arr[row] = v1
        s1 = score(params, quad)
        arr[row] = v2
        s2 = score(params, quad)
        arr[row] = a * v1 + b * v2
        assert score(params, quad) == pytest.approx(
            a * s1 + b * s2, rel=1e-10, abs=1e-10
        )

    @pytest.mark.parametrize(
        "model, table",
        [
            (TNTCOMPLEX, "relation"), (TNTCOMPLEX, "relation_temporal"),
            (TNTCOMPLEX, "timestamp"), (CHRONOR, "relation"),
            (CHRONOR, "timestamp"),
        ],
    )
    def test_affine_in_composite_factors(self, model, table):
        # Factors entering a sum (TNTComplEx) or a concatenation block
        # (ChronoR) are affine in the score: convex-style combinations with
        # a + b = 1 carry through, plain linear combinations do not.
        rng = np.random.default_rng(9)
        params = make_params(model, rng)
        quad = (0, 1, 2, 3)
        arr = getattr(params, table)
        row = quad[3] if table == "timestamp" else quad[1]
        v1 = rng.standard_normal(arr.shape[1])
        v2 = rng.standard_normal(arr.shape[1])
        a = float(rng.standard_normal())
        b = 1.0 - a
        arr[row] = v1
        s1 = score(params, quad)
        arr[row] = v2
        s2 = score(params, quad)
        arr[row] = a * v1 + b * v2
        assert score(params, quad) == pytest.approx(
            a * s1 + b * s2, rel=1e-10, abs=1e-10
        )

    def test_tnt_scaling_both_relation_tables_scales_score(self):
        rng = np.random.default_rng(19)
        params = make_params(TNTCOMPLEX, rng)
        quad = (0, 1, 2, 3)
        base = score(params, quad)
        params.relation[1] *= 3.0
        params.relation_temporal[1] *= 3.0
        assert score(params, quad) == pytest.approx(3.0 * base, rel=1e-12)


class TestScoreAllObjects:
    def test_single_entity(self):
        params = _unit_tcomplex()
        params.entity = params.entity[:1]
        vec = score_all_objects(params, 0, 0, 0)
        assert vec.shape == (1,)
        assert vec[0] == pytest.approx(score(params, (0, 0, 0, 0)))

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_pointwise_scores(self, model):
        rng = np.random.default_rng(10)
        params = make_params(model, rng, n_entities=7)
        vec = score_all_objects(params, 3, 1, 2)
        for k in range(7):
            pointwise = score(params, (3, 1, k, 2))
            denom = max(1.0, abs(pointwise))
            assert abs(vec[k] - pointwise) / denom <= 1e-10

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(11)
        params = make_params(TNTCOMPLEX, rng)
        a = score_all_objects(params, 0, 0, 0)
        b = score_all_objects(params, 0, 0, 0)
        assert np.array_equal(a, b)

    def test_batch_scores_match(self):
        rng = np.random.default_rng(12)
        params = make_params(CHRONOR, rng)
        quads = np.array([[0, 1, 2, 3], [1, 0, 4, 2], [5, 3, 0, 0]])
        got = score_batch(params, quads)
        for row, quad in enumerate(quads):
            assert got[row] == pytest.approx(oracle_score(params, quad), rel=1e-12)


class TestInitParams:
    def test_same_seed_identical(self):
        spec = ModelSpec(model=TNTCOMPLEX, rank=4)
        a = init_params(spec, 5, 6, 7, seed=42)
        b = init_params(spec, 5, 6, 7, seed=42)
        for name, arr in a.named_tensors().items():
            assert np.array_equal(arr, b.named_tensors()[name])

    def test_zero_scale_gives_zero_tables(self):
        spec = ModelSpec(model=TCOMPLEX, rank=3)
        params = init_params(spec, 4, 4, 4, seed=0, scale=0.0)
        for arr in params.named_tensors().values():
            assert not arr.any()

    def test_empirical_mean_within_3_sigma(self):
        spec = ModelSpec(model=TCOMPLEX, rank=50)
        scale = 1e-2
        params = init_params(spec, 9000, 500, 500, seed=1, scale=scale)
        entries = np.concatenate(
            [arr.ravel() for arr in params.named_tensors().values()]
        )
        assert entries.size >= 10 ** 6
        bound = 3.0 * scale / np.sqrt(entries.size)
        assert abs(entries.mean()) < bound


class TestParamCount:
    def test_tntcomplex_icews14_scale(self):
        spec = ModelSpec(model=TNTCOMPLEX, rank=2000)
        assert param_count(spec, 7128, 230, 365) == 33_652_000

    def test_unit_scale(self):
        spec = ModelSpec(model=TNTCOMPLEX, rank=1)
        assert param_count(spec, 1, 1, 1) == 12

    def test_tcomplex_vs_tntcomplex_difference(self):
        d, e, r, t = 16, 100, 11, 13
        tc = param_count(ModelSpec(model=TCOMPLEX, rank=d), e, r, t)
        tnt = param_count(ModelSpec(model=TNTCOMPLEX, rank=d), e, r, t)
        assert tnt - tc == 2 * d * 2 * r

    def test_chronor_counts_actual_shapes(self):
        spec = ModelSpec(model=CHRONOR, rank=4)  # d_j = d_t = 2
        e, r, t = 10, 3, 5
        params = init_params(spec, e, 2 * r, t, seed=0)
        total = sum(arr.size for arr in params.named_tensors().values())
        assert param_count(spec, e, r, t) == total


class TestCheckpoint:
    # sha256 of the checkpoint bytes of init_params(ModelSpec(model, 4),
    # 5, 4, 3, seed=0, dtype): pins table order, draw order and format.
    PINNED = {
        (TCOMPLEX, "float64"):
            "0be91dd7372d7b45b09932ecbe9f90143cfdcc453003e954490e8a8727c3c642",
        (TCOMPLEX, "float32"):
            "7796721d6b65d612871a25e2e590647cbdde529bd47fd5b62d601366ea889848",
        (TNTCOMPLEX, "float64"):
            "a4ace1dd7ae711c747be95cc7808c57925e3b49c0f4a1ae56445375b84f2a295",
        (TNTCOMPLEX, "float32"):
            "b0dd9494de8ec23f5fdf34984c776fa2d03c3a11d017849b2e6e736bcde9ed37",
        (CHRONOR, "float64"):
            "5ab3429068ade0784a8cb02b7d8adc07e53d9c76c7bd49a2119702db8ef0d2ac",
        (CHRONOR, "float32"):
            "ff0d6c71aee754b2e01af864b54ad2471b8e67dbb8e45b07ebc020a5c8431ba3",
    }

    @pytest.mark.parametrize("model, dtype", sorted(PINNED))
    def test_init_checkpoint_bytes_pinned(self, tmp_path, model, dtype):
        params = init_params(ModelSpec(model=model, rank=4), 5, 4, 3, seed=0,
                             dtype=np.dtype(dtype))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED[(model, dtype)]

    @pytest.mark.parametrize("model", MODELS)
    def test_round_trip(self, tmp_path, model):
        rng = np.random.default_rng(13)
        params = make_params(model, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, seed=9, dataset_hash="ab" * 32)
        loaded, header = load_checkpoint(path)
        assert header["model"] == model
        assert header["seed"] == 9
        assert header["dataset_hash"] == "ab" * 32
        for name, arr in params.named_tensors().items():
            assert np.array_equal(arr, loaded.named_tensors()[name])

    def test_float_count_matches_param_count(self, tmp_path):
        spec = ModelSpec(model=TNTCOMPLEX, rank=8)
        e, r_base, t = 30, 5, 12
        params = init_params(spec, e, 2 * r_base, t, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        assert checkpoint_float_count(path) == param_count(spec, e, r_base, t)

    def test_sidecar_manifest_written(self, tmp_path):
        rng = np.random.default_rng(14)
        params = make_params(TCOMPLEX, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, manifest_extra={"epochs": 5})
        manifest = (tmp_path / "model.ckpt.manifest").read_text()
        assert "model = tcomplex" in manifest
        assert "shape.entity = " in manifest
        assert "epochs = 5" in manifest

    def test_float32_precision_recorded_and_restored(self, tmp_path):
        spec = ModelSpec(model=TCOMPLEX, rank=2)
        params = init_params(spec, 3, 2, 2, seed=0, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, precision="float32")
        loaded, header = load_checkpoint(path)
        assert header["precision"] == "float32"
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded.entity, params.entity)

    def test_truncated_table_directory_rejected(self, tmp_path):
        params = make_params(TNTCOMPLEX, np.random.default_rng(15))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        n_tables = len(params.named_tensors())
        header_size = len(path.read_bytes()) - 8 * sum(
            a.size for a in params.named_tensors().values()) - 40 * n_tables
        path.write_bytes(path.read_bytes()[: header_size + 40 * n_tables - 5])
        for reader in (read_checkpoint_header, load_checkpoint):
            with pytest.raises(CheckpointFormatError, match="directory"):
                reader(path)

    def test_huge_table_count_rejected_without_reading(self, tmp_path):
        params = make_params(TCOMPLEX, np.random.default_rng(18))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = bytearray(path.read_bytes())
        tensors = params.named_tensors()
        # The u32 table count ends the fixed header, before the directory.
        count_at = len(raw) - 8 * sum(a.size for a in tensors.values()) \
            - 40 * len(tensors) - 4
        assert int.from_bytes(raw[count_at:count_at + 4], "little") \
            == len(tensors)
        raw[count_at:count_at + 4] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="directory"):
            read_checkpoint_header(path)

    def test_missing_model_table_rejected(self, tmp_path):
        params = make_params(TCOMPLEX, np.random.default_rng(17))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        # The 16-byte model tag follows the magic and the u32 version.
        path.write_bytes(raw[:12] + b"tntcomplex".ljust(16, b"\0") + raw[28:])
        with pytest.raises(CheckpointFormatError, match="relation_temporal"):
            load_checkpoint(path)

    def test_truncated_table_data_rejected(self, tmp_path):
        params = make_params(TCOMPLEX, np.random.default_rng(16))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = make_params(CHRONOR, np.random.default_rng(17))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)
