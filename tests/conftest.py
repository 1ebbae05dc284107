import importlib
import pkgutil
import re

import pytest

import jrtower


@pytest.fixture(scope="session")
def record_classes() -> list[type]:
    """Every record class of the package: the tuple subclasses with
    _fields that a jrtower module defines at its top level."""
    found = []
    for info in pkgutil.iter_modules(jrtower.__path__):
        module = importlib.import_module(f"jrtower.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and hasattr(value, "_fields") and value.__module__ == module.__name__):
                found.append(value)
    return found

# One line per acceptance criterion is printed at the end of the run,
# independent of output capture, so a plain `pytest -v` shows the
# verdict for each numbered requirement.

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_expected: dict[int, str] = {}
_outcomes: dict[int, bool] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        m = _CRITERION.search(item.nodeid)
        if m:
            label = item.nodeid.split("::")[-1]
            _expected[int(m.group(1))] = label


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call":
        _outcomes[num] = report.passed
    elif report.failed:  # setup or teardown error
        _outcomes[num] = False


def pytest_terminal_summary(terminalreporter):
    if not _expected:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_expected):
        ok = _outcomes.get(num, False)
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{word}] {_expected[num]}")
