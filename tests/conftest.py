"""Fixtures shared by every test module."""

import pytest

from toricbundle import integrate


@pytest.fixture(autouse=True)
def fresh_i_f_memo():
    """Each test starts with an empty I_f memo, so that a test which patches
    a step of the vertex sum runs it instead of reading an earlier test's
    entry, and so that cache counts are the test's own."""
    integrate.i_f_polynomial.cache_clear()
