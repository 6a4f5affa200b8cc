"""Suite-wide pytest settings."""

import pytest

# When a hypothesis test fails, hypothesis's report hook imports libcst,
# whose class definitions built on mypy_extensions.TypedDict raise this
# DeprecationWarning. Under `pytest -W error` it would abort the run with
# INTERNALERROR instead of printing the falsifying example. A command-line
# -W filter overrides the ini `filterwarnings`, and a marker overrides both,
# so the one warning from that one module is ignored per test item here.
LIBCST_TYPEDDICT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(LIBCST_TYPEDDICT)
