"""A warning raised while a test under tests/ runs fails that test.

The mark is added here, not in the pytest settings, so that `python -m
pytest bench` runs as it does without it.  One warning is let through:
when a hypothesis test fails, hypothesis imports libcst for its failure
report, and libcst's use of `mypy_extensions.TypedDict` warns; as an error
it would stop the session instead of reporting the failure."""

import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(
                "ignore:mypy_extensions.TypedDict is deprecated"
                ":DeprecationWarning"))
