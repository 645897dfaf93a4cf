import signal

import pytest

from conftest import TEST_TIME_LIMIT_S


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_a_running_test_fails_when_its_time_runs_out():
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
    expire = signal.getsignal(signal.SIGALRM)
    with pytest.raises(pytest.fail.Exception, match="still running after"):
        expire(signal.SIGALRM, None)
