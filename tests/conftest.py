import pytest

from zhangliu.selftest import SuiteReport


@pytest.fixture
def holds():
    """holds(check, *domain): sweep a ``zhangliu.selftest`` check over the
    domain and assert that it made at least one comparison and that every
    comparison held."""

    def run(check, *domain):
        rep = SuiteReport(check.__name__)
        rep.run(check, *domain)
        assert rep.checks, f"{check.__name__} compared nothing on {domain}"
        assert not rep.failures, f"{len(rep.failures)} failures, first: {rep.failures[:5]}"

    return run
