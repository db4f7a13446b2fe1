"""Unit tests for repro.util helpers."""

import logging

import pytest

from repro.util import ceil_div, get_logger, is_power_of_two, popcount


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_dividend(self):
        assert ceil_div(0, 7) == 0

    def test_one(self):
        assert ceil_div(1, 100) == 1

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(5, 0)

    def test_rejects_negative_dividend(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 3)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_all_ones(self):
        assert popcount(0xFF) == 8

    def test_sparse(self):
        assert popcount((1 << 47) | 1) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("x", [1, 2, 4, 64, 4096, 1 << 30])
    def test_powers(self, x):
        assert is_power_of_two(x)

    @pytest.mark.parametrize("x", [0, 3, 6, 63, 65, -4])
    def test_non_powers(self, x):
        assert not is_power_of_two(x)


class TestLogger:
    def test_namespaced(self):
        lg = get_logger("model.fsmodel")
        assert lg.name == "repro.model.fsmodel"

    def test_already_prefixed(self):
        lg = get_logger("repro.sim")
        assert lg.name == "repro.sim"

    def test_is_logger(self):
        assert isinstance(get_logger("x"), logging.Logger)


class TestLogLevels:
    def test_parse_level_names_and_numbers(self):
        from repro.util import parse_level

        assert parse_level("DEBUG") == logging.DEBUG
        assert parse_level("warning") == logging.WARNING
        assert parse_level(15) == 15
        assert parse_level("10") == 10

    def test_parse_level_rejects_garbage(self):
        from repro.util import parse_level

        with pytest.raises(ValueError):
            parse_level("LOUD")

    def test_set_level_returns_previous(self):
        from repro.util import set_level

        old = set_level("DEBUG")
        try:
            assert logging.getLogger("repro").level == logging.DEBUG
            assert set_level(old) == logging.DEBUG
        finally:
            logging.getLogger("repro").setLevel(old)

    def test_set_level_accepts_numeric_string(self):
        from repro.util import set_level

        old = set_level("10")
        try:
            assert logging.getLogger("repro").level == 10
        finally:
            logging.getLogger("repro").setLevel(old)

    def test_invalid_env_value_warns_not_silent(self, monkeypatch):
        from repro.util.logging import _level_from_env

        monkeypatch.setenv("REPRO_LOG", "VERYLOUD")
        with pytest.warns(RuntimeWarning, match="REPRO_LOG"):
            assert _level_from_env() == logging.WARNING

    def test_numeric_env_value_accepted(self, monkeypatch):
        from repro.util.logging import _level_from_env

        monkeypatch.setenv("REPRO_LOG", "10")
        assert _level_from_env() == logging.DEBUG

    def test_unset_env_defaults_to_warning(self, monkeypatch):
        from repro.util.logging import _level_from_env

        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert _level_from_env() == logging.WARNING
