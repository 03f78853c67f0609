"""Every row of the planted-fault table fails the tests it names."""

import pytest

from planted_faults import survivors


@pytest.mark.slow
def test_every_planted_fault_fails_its_tests():
    assert survivors() == []
