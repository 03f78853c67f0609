import sys

import pytest
from hypothesis import settings

# Deterministic property runs: no wall-clock deadline (big-integer cases
# vary wildly in speed) and no example database in the repo.
settings.register_profile("repo", deadline=None, derandomize=True, database=None)
settings.load_profile("repo")


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run the tests marked slow (each may take tens of seconds)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def default_int_str_limit():
    """CPython's default int <-> str digit limit (4300) for one test.

    ``cli.main`` lifts the limit only for its own call and then gives the
    caller's setting back, so this is the interpreter's default unless a
    test changed it. A library test that must hold under the default sets
    it here, whatever ran before, and restores what it found afterwards.
    Interpreters without the limit run the test as is.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(found)
