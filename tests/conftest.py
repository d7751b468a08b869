import pytest

from pairscore import training


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
        print(f"\nACCEPTANCE {name}: {outcome}", flush=True)


@pytest.fixture
def slots(request, monkeypatch):
    """``PREDICT_SLOTS`` set to the test's parameter: the padded slots a forward call may hold."""
    monkeypatch.setattr(training, "PREDICT_SLOTS", request.param)
    return request.param
