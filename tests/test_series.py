"""Tests for the TimeSeries value object and the normal form."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidObjectError, ReproError
from repro.core.spaces import PolarSpace
from repro.timeseries.normalform import denormalize, normal_form_values, normalize
from repro.timeseries.series import TimeSeries

values_strategy = st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                           min_size=2, max_size=64)


class TestTimeSeries:
    def test_construction(self):
        series = TimeSeries([1.0, 2.0, 3.0], name="abc")
        assert len(series) == 3
        assert series.name == "abc"
        assert list(series) == [1.0, 2.0, 3.0]

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValueError):
            TimeSeries([])
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(InvalidObjectError, match="finite") as caught:
            TimeSeries([1.0, bad, 3.0])
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, ValueError)

    def test_values_read_only(self):
        series = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 9.0

    def test_indexing_and_slicing(self):
        series = TimeSeries([1.0, 2.0, 3.0, 4.0])
        assert series[1] == 2.0
        sliced = series[1:3]
        assert isinstance(sliced, TimeSeries)
        assert list(sliced) == [2.0, 3.0]

    def test_statistics(self):
        series = TimeSeries([2.0, 4.0, 6.0])
        assert series.mean() == pytest.approx(4.0)
        assert series.std() == pytest.approx(np.std([2.0, 4.0, 6.0]))
        assert series.energy() == pytest.approx(4 + 16 + 36)

    def test_equality_is_value_based(self):
        assert TimeSeries([1.0, 2.0]) == TimeSeries([1.0, 2.0])
        assert TimeSeries([1.0, 2.0]) != TimeSeries([1.0, 2.5])
        assert hash(TimeSeries([1.0, 2.0])) == hash(TimeSeries([1.0, 2.0]))

    def test_shift_scale_reverse(self):
        series = TimeSeries([1.0, -2.0, 3.0])
        assert list(series.shifted(1.0)) == [2.0, -1.0, 4.0]
        assert list(series.scaled(-2.0)) == [-2.0, 4.0, -6.0]
        assert list(series.reversed_sign()) == [-1.0, 2.0, -3.0]

    def test_euclidean_distance(self):
        a = TimeSeries([0.0, 0.0])
        b = TimeSeries([3.0, 4.0])
        assert a.euclidean_distance(b) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            a.euclidean_distance(TimeSeries([1.0]))

    def test_spectrum_and_leading_coefficients(self):
        series = TimeSeries(np.arange(8.0))
        assert series.spectrum().shape == (8,)
        assert series.leading_coefficients(3).shape == (3,)

    def test_feature_vector_in_space(self):
        series = TimeSeries(np.arange(16.0))
        space = PolarSpace(2, 2)
        point = series.feature_vector(space)
        assert point.dimension == 6
        assert point[0] == pytest.approx(series.mean())
        assert point[1] == pytest.approx(series.std())

    def test_feature_vector_without_space_is_raw_values(self):
        series = TimeSeries([1.0, 2.0])
        assert list(series.feature_vector()) == [1.0, 2.0]


class TestNormalForm:
    def test_normal_form_has_zero_mean_unit_std(self):
        series = TimeSeries([3.0, 7.0, 11.0, 15.0])
        form = normalize(series)
        assert form.series.mean() == pytest.approx(0.0, abs=1e-12)
        assert form.series.std() == pytest.approx(1.0)
        assert form.mean == pytest.approx(series.mean())
        assert form.std == pytest.approx(series.std())

    def test_constant_series_maps_to_zero(self):
        form = normalize(TimeSeries([5.0, 5.0, 5.0]))
        assert np.allclose(form.series.values, 0.0)
        assert form.std == 0.0

    def test_restore_roundtrip(self):
        series = TimeSeries([1.0, 4.0, 2.0, 8.0], name="orig")
        form = normalize(series)
        assert np.allclose(form.restore().values, series.values)

    def test_denormalize_explicit(self):
        normalised, mean, std = normal_form_values(np.array([1.0, 3.0, 5.0]))
        restored = denormalize(TimeSeries(normalised), mean, std)
        assert np.allclose(restored.values, [1.0, 3.0, 5.0])

    def test_shift_and_scale_invariance(self):
        base = TimeSeries([1.0, 5.0, 2.0, 9.0])
        shifted_scaled = base.scaled(3.0).shifted(-7.0)
        assert np.allclose(normalize(base).series.values,
                           normalize(shifted_scaled).series.values)

    def test_negative_scale_flips_normal_form(self):
        base = TimeSeries([1.0, 5.0, 2.0, 9.0])
        flipped = base.scaled(-2.0)
        assert np.allclose(normalize(base).series.values,
                           -normalize(flipped).series.values)

    @given(values_strategy)
    @settings(max_examples=50)
    def test_normal_form_properties(self, values):
        array = np.array(values)
        normalised, mean, std = normal_form_values(array)
        assert mean == pytest.approx(np.mean(array), rel=1e-9, abs=1e-9)
        if std > 1e-9:
            assert np.mean(normalised) == pytest.approx(0.0, abs=1e-7)
            assert np.std(normalised) == pytest.approx(1.0, rel=1e-6)
            assert np.allclose(normalised * std + mean, array, atol=1e-6)
