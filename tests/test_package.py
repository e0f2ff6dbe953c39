"""The lazy package surface: ``sidonor.X`` is the object its home module holds."""

import importlib

import pytest

import sidonor
from sidonor import constants, error_budget, spectrum


def test_every_public_name_is_its_home_modules_object():
    for name in sidonor.__all__:
        home = importlib.import_module(f"sidonor.{sidonor._HOME[name]}")
        assert getattr(sidonor, name) is getattr(home, name), name
    assert set(sidonor.__all__) <= set(dir(sidonor))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sidonor import *", namespace)
    assert all(namespace[name] is getattr(sidonor, name) for name in sidonor.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'sidonor' has no attribute 'sweep_spectra'"):
        sidonor.sweep_spectra  # noqa: B018


def test_each_shared_record_is_one_object_on_every_path():
    assert spectrum.ConvergenceError is constants.ConvergenceError is sidonor.ConvergenceError
    assert error_budget.PlacementError is constants.PlacementError is sidonor.PlacementError
    assert error_budget.DEFAULT_LINE_WIDTH is constants.DEFAULT_LINE_WIDTH
    assert spectrum.DEFAULT_BETA_GRID.tolist() == constants.linear_grid(*constants.DEFAULT_BETA_RANGE)
