"""The ``bench`` marker for everything collected under benchmarks/."""

import os

import pytest


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker, so
    ``pytest -m "not bench"`` gives a fast inner loop while the default
    invocation still runs the e2e smoke tests.

    The hook sees the whole session's items (it runs in every conftest),
    so mark only the ones collected from this directory.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.fspath).startswith(here + os.sep):
            item.add_marker(pytest.mark.bench)
