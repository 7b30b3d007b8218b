import doctest

import pytest

from arcdiagrams import bdiagram, errors, generation, inversion, perm, words


@pytest.mark.parametrize("module", [perm, words, bdiagram, inversion, generation, errors])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
