"""Every row of the planted-fault table fails the tests it names, but
the rows expected to survive, whose tests pass."""

import pytest

from planted_faults import EXPECTED_TO_SURVIVE, survivors


@pytest.mark.slow
def test_every_planted_fault_fails_its_tests():
    assert survivors() == list(EXPECTED_TO_SURVIVE)
