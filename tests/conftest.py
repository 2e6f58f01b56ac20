"""Every passing theorem-mode ladder report that a test builds in this
process is held against the measured genus weights (``oracles.genus_weights``):
at each rung m the fitted a_tilde of genus g is w_g / mass_g mod p^(b(m)+1).
A test during which a report misses them fails at its teardown, reports
built by a module-scoped fixture included."""

import pytest

from eistheta import padic

from oracles import genus_weight_misses

_MISSES = []


@pytest.fixture(scope="session", autouse=True)
def _reports_are_checked_against_the_genus_weights():
    build = padic.VerificationReport

    def checked(*args, **kwargs):
        report = build(*args, **kwargs)
        misses = genus_weight_misses(report)
        if misses:
            _MISSES.append((report.target, report.degree, report.trace_bound, misses))
        return report

    padic.VerificationReport = checked
    yield
    padic.VerificationReport = build


@pytest.fixture(autouse=True)
def _no_report_misses_the_genus_weights():
    yield
    found = list(_MISSES)
    _MISSES.clear()
    if found:
        pytest.fail(f"fitted coefficients off the genus weights (target, degree, "
                    f"trace bound, [(rung, genus det)]): {found}")
