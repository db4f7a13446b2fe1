"""Small shared utilities: logging and integer helpers."""

from repro.util.logging import get_logger, parse_level, set_level
from repro.util.intmath import ceil_div, popcount, is_power_of_two

__all__ = [
    "get_logger",
    "parse_level",
    "set_level",
    "ceil_div",
    "popcount",
    "is_power_of_two",
]
