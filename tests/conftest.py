"""A warning raised while a test under tests/ runs fails that test.

The mark is added here, not in the pytest settings, so that `python -m
pytest bench` runs as it does without it."""

import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
