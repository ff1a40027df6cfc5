import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoments import (
    ArrayConfig,
    baseline_differences,
    fourier_resolution,
    make_uniform_array,
    steering_vector,
)


def test_uniform_array_wavenumbers():
    array = make_uniform_array(7, 100.0)
    assert array.M == 7
    np.testing.assert_allclose(array.kz, 2.0 * np.pi * np.arange(7) / 100.0, rtol=1e-15)
    assert array.ambiguity == pytest.approx(100.0, rel=1e-12)


def test_uniform_array_validation():
    with pytest.raises(ValueError):
        make_uniform_array(1, 100.0)
    with pytest.raises(ValueError):
        make_uniform_array(7, 0.0)
    with pytest.raises(ValueError):
        make_uniform_array(7, -5.0)


def test_booleans_are_not_lengths():
    # float(True) == 1.0: each of these used to build a 1-m ambiguity
    with pytest.raises(ValueError):
        make_uniform_array(7, True)
    with pytest.raises(ValueError):
        ArrayConfig(kz=np.array([0.0, 0.1, 0.25]), ambiguity=True)
    with pytest.raises(ValueError):
        ArrayConfig.from_json({"M": 7, "z_amb": True})


def test_array_config_requires_increasing_finite():
    with pytest.raises(ValueError):
        ArrayConfig(kz=np.array([0.0]))
    with pytest.raises(ValueError):
        ArrayConfig(kz=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ArrayConfig(kz=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        ArrayConfig(kz=np.array([0.0, np.inf]))


def test_ambiguity_derived_only_for_uniform_spacing():
    uniform = ArrayConfig(kz=np.array([0.0, 0.1, 0.2, 0.3]))
    assert uniform.ambiguity == pytest.approx(2.0 * np.pi / 0.1)
    ragged = ArrayConfig(kz=np.array([0.0, 0.1, 0.25]))
    assert ragged.ambiguity is None


def test_ambiguity_must_be_a_period_of_the_array():
    # lags 0.30, 0.74, 0.97 and 1.81 of a 60 m "ambiguity": no period, so refused
    # by name rather than left to round into a misleading identifiability error
    with pytest.raises(ValueError, match="ambiguity 60.0 m is not a period"):
        ArrayConfig(kz=[0.0, 0.031, 0.077, 0.102, 0.19], ambiguity=60.0)
    # whole lags are kept within a relative 1e-9, the tolerance of uniform spacing
    period = 2.0 * np.pi / 0.1
    for ambiguity in (period, period * (1.0 + 1e-10), 3.0 * period):
        assert ArrayConfig(kz=[0.0, 0.1, 0.2, 0.3], ambiguity=ambiguity).ambiguity == ambiguity
    with pytest.raises(ValueError, match="is not a period"):
        ArrayConfig(kz=[0.0, 0.1, 0.2, 0.3], ambiguity=period * (1.0 + 1e-8))
    with pytest.raises(ValueError, match="ambiguity"):
        ArrayConfig.from_json({"kz": [0.0, 0.031, 0.077], "ambiguity": 60.0})


def test_kz_array_is_read_only():
    array = make_uniform_array(3, 50.0)
    with pytest.raises(ValueError):
        array.kz[0] = 1.0


def test_equal_arrays_are_equal_and_hash_equal():
    first, second = make_uniform_array(7, 100.0), make_uniform_array(7, 100.0)
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    ragged = ArrayConfig(kz=np.array([0.0, 0.1, 0.25]))
    assert ragged == ArrayConfig(kz=[0.0, 0.1, 0.25])
    assert hash(ragged) == hash(ArrayConfig(kz=[0.0, 0.1, 0.25]))


def test_arrays_differing_in_kz_or_ambiguity_are_unequal():
    array = make_uniform_array(7, 100.0)
    assert array != make_uniform_array(7, 90.0)
    assert array != make_uniform_array(6, 100.0)
    assert array != ArrayConfig(kz=array.kz, ambiguity=2.0 * array.ambiguity)
    assert array != ArrayConfig(kz=np.nextafter(array.kz, 1.0), ambiguity=array.ambiguity)
    ragged = ArrayConfig(kz=np.array([0.0, 0.1, 0.25]))
    # lags 0, 2 and 5 of a 40 pi m period
    assert ragged != ArrayConfig(kz=ragged.kz, ambiguity=40.0 * np.pi)
    assert array != array.to_json()


def test_resolution_conventions():
    array = make_uniform_array(7, 100.0)
    # span of 6 spacings: 2*pi / (6 * 2*pi/100) = 100/6
    assert fourier_resolution(array) == pytest.approx(100.0 / 6.0, rel=1e-12)


def test_steering_vector_reference_values():
    array = make_uniform_array(7, 100.0)
    a = steering_vector(array, 10.0)
    expected = np.exp(1j * 2.0 * np.pi * np.arange(7) / 10.0)
    np.testing.assert_allclose(a, expected, rtol=1e-12)
    np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-12)


def test_steering_vector_periodic_in_ambiguity():
    array = make_uniform_array(5, 80.0)
    np.testing.assert_allclose(
        steering_vector(array, 12.5), steering_vector(array, 12.5 + 80.0), rtol=0, atol=1e-12
    )


def test_baseline_differences_antisymmetric():
    array = make_uniform_array(4, 60.0)
    diff = baseline_differences(array)
    np.testing.assert_allclose(diff, -diff.T, rtol=0, atol=0)
    np.testing.assert_allclose(np.diag(diff), 0.0, atol=0)


def test_baseline_differences_hand_values():
    # unit spacing: entries are n - m, and their squares (n - m)^2
    array = make_uniform_array(3, 2.0 * np.pi)
    diff = baseline_differences(array)
    n = np.arange(3)
    np.testing.assert_allclose(diff, n[:, None] - n[None, :], rtol=1e-12)
    np.testing.assert_allclose(diff**2, (n[:, None] - n[None, :]) ** 2.0, rtol=1e-12)


def test_json_round_trip_uniform():
    array = make_uniform_array(7, 100.0)
    payload = array.to_json()
    assert payload == {"M": 7, "z_amb": 100.0}
    back = ArrayConfig.from_json(payload)
    np.testing.assert_allclose(back.kz, array.kz, rtol=0, atol=0)


def test_json_round_trip_explicit_kz():
    array = ArrayConfig(kz=np.array([0.0, 0.1, 0.25]))
    back = ArrayConfig.from_json(array.to_json())
    np.testing.assert_allclose(back.kz, array.kz, rtol=0, atol=0)
    assert back.ambiguity is None


def test_json_keeps_an_ambiguity_kz_does_not_imply():
    sparse = ArrayConfig(2.0 * np.pi / 100.0 * np.array([0, 1, 3, 7]), ambiguity=100.0)
    assert sparse.to_json() == {"kz": sparse.kz.tolist(), "ambiguity": 100.0}
    assert ArrayConfig.from_json(sparse.to_json()) == sparse
    # an ambiguity kz implies is not written
    offset = ArrayConfig(kz=np.array([0.1, 0.2, 0.3]))
    assert offset.ambiguity is not None and offset.to_json() == {"kz": offset.kz.tolist()}


@settings(max_examples=50)
@given(
    M=st.integers(min_value=2, max_value=12),
    z_amb=st.floats(min_value=1.0, max_value=1e4),
    z=st.floats(min_value=-1e4, max_value=1e4),
)
def test_steering_vector_unit_modulus(M, z_amb, z):
    array = make_uniform_array(M, z_amb)
    a = steering_vector(array, z)
    assert a.shape == (M,)
    np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-9)

