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
