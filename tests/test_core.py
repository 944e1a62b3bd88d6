import numpy as np
import pytest

import tkgc
from tkgc.core import (
    Vocabulary,
    complex_trilinear,
    conjugate,
    from_complex,
    inverse_relation,
    rng_stream,
    to_complex,
)


class TestComplexTrilinear:
    def test_identity_case(self):
        one = from_complex(np.array([1 + 0j]))
        assert complex_trilinear(one, one, one) == 1 + 0j

    def test_hand_multiplication(self):
        # (0+1i) * (1+0i) * (0-1i) = -i^2 = 1
        a = from_complex(np.array([1j]))
        b = from_complex(np.array([1 + 0j]))
        c = from_complex(np.array([-1j]))
        assert complex_trilinear(a, b, c) == pytest.approx(1 + 0j)

    def test_zero_vector_annihilates(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6)
        zero = np.zeros(6)
        assert complex_trilinear(a, zero, a) == 0 + 0j

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            complex_trilinear(np.zeros(4), np.zeros(6), np.zeros(4))

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (rng.standard_normal(8) for _ in range(3))
            base = complex_trilinear(a, b, c)
            assert complex_trilinear(b, c, a) == pytest.approx(base)
            assert complex_trilinear(c, a, b) == pytest.approx(base)
            assert complex_trilinear(b, a, c) == pytest.approx(base)

    def test_matches_numpy_complex_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (rng.standard_normal(10) for _ in range(3))
            expected = np.sum(to_complex(a) * to_complex(b) * to_complex(c))
            assert complex_trilinear(a, b, c) == pytest.approx(complex(expected))


class TestToComplex:
    def test_split_half_layout(self):
        storage = np.array([[1.0, 2.0, 3.0, 4.0]])  # d=2: re (1, 2), im (3, 4)
        assert np.array_equal(to_complex(storage), np.array([[1 + 3j, 2 + 4j]]))

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 8))
        assert np.array_equal(from_complex(to_complex(x)), x)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            to_complex(np.zeros(3))


class TestConjugate:
    def test_definition(self):
        row = from_complex(np.array([1 + 2j]))
        assert np.array_equal(conjugate(row), from_complex(np.array([1 - 2j])))

    def test_involution(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        assert np.array_equal(conjugate(conjugate(x)), x)

    def test_real_vector_fixed_point(self):
        x = np.array([1.5, -2.0, 0.0, 0.0])  # d=2, zero imaginary half
        assert np.array_equal(conjugate(x), x)


class TestVocabulary:
    def test_round_trip_identity(self):
        vocab = Vocabulary(
            entities=["a", "b"], relations=["meets"],
            timestamps=["2014-01-01", "2014-01-02"],
        )
        for name in vocab.entities:
            assert vocab.entities[vocab.entity_id(name)] == name
        for name in vocab.relations:
            assert vocab.relations[vocab.relation_id(name)] == name
        for name in vocab.timestamps:
            assert vocab.timestamps[vocab.timestamp_id(name)] == name

    def test_duplicate_strings_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(entities=["a", "a"], relations=["r"], timestamps=["t"])

    def test_no_time_slot_must_be_reserved(self):
        with pytest.raises(ValueError):
            Vocabulary(entities=["a"], relations=["r"],
                       timestamps=["2014-01-01"], has_no_time=True)

    def test_content_hash_changes_with_content(self):
        base = Vocabulary(entities=["a"], relations=["r"], timestamps=["t"])
        other = Vocabulary(entities=["b"], relations=["r"], timestamps=["t"])
        assert base.content_hash() != other.content_hash()
        assert base.content_hash() == Vocabulary(
            entities=["a"], relations=["r"], timestamps=["t"]
        ).content_hash()


class TestReciprocal:
    def test_involution(self):
        for relation in range(6):
            assert inverse_relation(inverse_relation(relation, 6), 6) == relation

    def test_inverse_relation_halves(self):
        assert inverse_relation(0, 4) == 2
        assert inverse_relation(3, 4) == 1

    def test_odd_relation_space_rejected(self):
        with pytest.raises(ValueError):
            inverse_relation(0, 5)


def test_every_exported_name_resolves():
    for name in tkgc.__all__:
        assert getattr(tkgc, name) is not None, name


def test_rng_streams_are_independent_and_deterministic():
    a1 = rng_stream(7, "init").standard_normal(5)
    a2 = rng_stream(7, "init").standard_normal(5)
    b = rng_stream(7, "shuffle").standard_normal(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
