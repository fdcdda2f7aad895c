"""The four argument rules at their boundaries: bools, numpy numbers and each end of a range."""
from __future__ import annotations

import math

import numpy as np
import pytest

from semhash._args import MAX_ITEMS, count, floats, integers, real
from semhash.errors import ConfigError, LabelOutOfRange, ShapeMismatch


class TestCount:
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_a_bool_is_no_count(self, value):
        with pytest.raises(ConfigError, match=f"^n must be an integer >= 0, got {value!r}$"):
            count(value, "n", ConfigError)

    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.int32(3), 3])
    def test_python_and_numpy_integers_are_counts(self, value):
        got = count(value, "n", ConfigError, 1, 3)
        assert got == 3 and type(got) is int

    def test_both_ends_are_closed(self):
        assert count(1, "n", ConfigError, 1, 3) == 1 and count(3, "n", ConfigError, 1, 3) == 3
        for value in (0, 4):
            with pytest.raises(ConfigError, match=rf"^n must be an integer in \[1, 3\], got {value}$"):
                count(value, "n", ConfigError, 1, 3)

    @pytest.mark.parametrize("value", [2.0, np.float64(2), "2", None, 2j, [2]])
    def test_anything_but_an_integer_is_the_callers_error(self, value):
        with pytest.raises(ShapeMismatch, match="^k must be an integer >= 1, got "):
            count(value, "k", ShapeMismatch, 1)

    def test_without_an_upper_bound_any_size_is_a_count(self):
        assert count(2**200, "n", ConfigError) == 2**200


class TestReal:
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_a_bool_is_no_real_number(self, value):
        with pytest.raises(ConfigError, match=f"^x must be a finite real number >= 0, got {value!r}$"):
            real(value, "x", ConfigError)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(2), 2, 0.5])
    def test_python_and_numpy_numbers_are_real(self, value):
        got = real(value, "x", ConfigError)
        assert got == value and type(got) is float

    def test_the_low_end_is_closed_unless_open(self):
        assert real(0, "x", ConfigError) == 0.0
        with pytest.raises(ConfigError, match=r"^x must be a finite real number > 0, got 0$"):
            real(0, "x", ConfigError, open_low=True)
        assert real(5e-324, "x", ConfigError, open_low=True) == 5e-324
        with pytest.raises(ConfigError, match=r"^x must be a finite real number >= 1, got 0\.5$"):
            real(0.5, "x", ConfigError, 1)

    def test_the_high_end_is_open(self):
        assert real(math.nextafter(1.0, 0.0), "b", ConfigError, 0, 1) < 1.0
        with pytest.raises(ConfigError, match=r"^b must be a finite real number in \[0, 1\), got 1$"):
            real(1, "b", ConfigError, 0, 1)
        with pytest.raises(ConfigError, match=r"^b must be a finite real number in \(0, 1\), got 0$"):
            real(0, "b", ConfigError, 0, 1, open_low=True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan"), 10**400])
    def test_nan_infinities_and_ints_beyond_float_are_rejected(self, value):
        with pytest.raises(ConfigError, match="^x must be a finite real number >= -1, got "):
            real(value, "x", ConfigError, -1)

    def test_the_largest_float_is_finite(self):
        assert real(np.finfo(np.float64).max, "x", ConfigError) == np.finfo(np.float64).max

    @pytest.mark.parametrize("value", ["0.5", None, 1j, [0.5], np.array(0.5), object()])
    def test_anything_but_a_real_number_is_the_callers_error(self, value):
        with pytest.raises(ShapeMismatch, match="^x must be a finite real number >= 0, got "):
            real(value, "x", ShapeMismatch)


class TestIntegers:
    def test_a_bool_array_is_no_integer_array(self):
        with pytest.raises(ShapeMismatch, match=r"^ids must be integers in \[0, 8\)$"):
            integers(np.array([True, False]), "ids", ShapeMismatch, 8)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint64])
    def test_numpy_integer_arrays_are_accepted_and_cast(self, dtype):
        got = integers(np.array([0, 7], dtype=dtype), "ids", ShapeMismatch, 8)
        assert got.dtype == np.int64 and got.tolist() == [0, 7]

    def test_zero_is_in_and_high_is_out(self):
        assert integers([0, 1], "labels", LabelOutOfRange, 2).tolist() == [0, 1]
        for values in ([-1, 0], [0, 2]):
            with pytest.raises(LabelOutOfRange, match=r"^labels must be integers in \[0, 2\)$"):
                integers(values, "labels", LabelOutOfRange, 2)

    def test_the_full_uint64_range_keeps_its_type(self):
        words = np.array([[0, 2**64 - 1]], dtype=np.uint64)
        words = integers(words, "words", ShapeMismatch, 2**64, np.uint64)
        assert words.dtype == np.uint64 and words.tolist() == [[0, 2**64 - 1]]

    @pytest.mark.parametrize("values", [
        [0.0, 1.0], [[0, 1], [2]], np.array(["0", "1"]), [0, None], [1j], [0, 2**64], object(),
    ])
    def test_floats_ragged_text_and_objects_are_the_callers_error(self, values):
        with pytest.raises(ShapeMismatch, match=r"^ids must be integers in \[0, 8\)$"):
            integers(values, "ids", ShapeMismatch, 8)

    def test_no_entries_are_in_range(self):
        assert integers([], "ids", ShapeMismatch, 1).shape == (0,)


class TestFloats:
    def test_the_rank_is_exact(self):
        assert floats([[1, 2]], "z", ShapeMismatch, 2).shape == (1, 2)
        for values in ([1, 2], [[[1.0]]], 1.0):
            with pytest.raises(ShapeMismatch, match="^z must be a 2-D array of real numbers, got "):
                floats(values, "z", ShapeMismatch, 2)

    def test_bools_and_integers_are_real_numbers(self):
        got = floats([[True, 2]], "z", ShapeMismatch, 2)
        assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("values, got", [
        ([[0.5], [1, 2]], "a ragged sequence"),
        (np.array([["a"]]), "<U1 of shape (1, 1)"),
        ([[None]], "object of shape (1, 1)"),
        ([[1j]], "complex128 of shape (1, 1)"),
    ])
    def test_ragged_text_object_and_complex_input_is_the_callers_error(self, values, got):
        with pytest.raises(ShapeMismatch) as caught:
            floats(values, "z", ShapeMismatch, 2)
        assert str(caught.value) == f"z must be a 2-D array of real numbers, got {got}"

    def test_the_dtype_is_float64_float32_or_the_inputs_own(self):
        f32 = np.ones((2, 2), np.float32)
        assert floats(f32, "z", ShapeMismatch, 2).dtype == np.float64
        assert floats(f32.astype(np.float64), "z", ShapeMismatch, 2, np.float32).dtype == np.float32
        assert floats(f32, "z", ShapeMismatch, 2, None) is f32  # no copy
        assert floats([[1, 2]], "z", ShapeMismatch, 2, None).dtype == np.int64


def test_max_items_is_numpys_array_limit_in_float64_entries():
    assert MAX_ITEMS * 8 <= np.iinfo(np.intp).max < (MAX_ITEMS + 1) * 8
