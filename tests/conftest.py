import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Pin Python's int/str conversion limit to its default of 4300 digits,
    which bounds germ labels on input and output."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
