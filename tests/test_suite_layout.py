"""The suite keeps one independent reference per layer (see the map in
``conftest.py``).  A helper module next to the tests would be a second one,
such as a verbatim copy of former library code; adding one means editing
this list and saying why in CHANGES.md."""

import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def test_only_conftest_and_the_factorization_search_are_helper_modules():
    helpers = sorted(p.name for p in TESTS.glob("*.py") if not p.name.startswith("test_"))
    assert helpers == ["conftest.py", "factorization_search.py"]
