"""Background job handles: terminal-state machine, cancel, timeout.

ISSUE 8 satellite: ``submit_job``'s edge cases were untested — a result
read before completion, double waits, tracebacks surviving into
``describe()``, and the new ``cancel()`` / ``timeout_s`` transitions.
The invariant throughout: a handle reaches exactly **one** terminal
status, first writer wins, and late outcomes are discarded.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.exceptions import SpecificationError
from repro.core.executor import JOB_TERMINAL, JobHandle, submit_job


def _gated():
    """A function that blocks until released, plus its control events."""
    entered = threading.Event()
    release = threading.Event()

    def body():
        entered.set()
        release.wait(10)
        return "late-result"

    return body, entered, release


class TestLifecycle:
    def test_result_is_none_before_completion(self):
        body, entered, release = _gated()
        handle = submit_job(body)
        entered.wait(10)
        assert handle.status == "running"
        assert handle.result is None
        assert handle.error is None
        release.set()
        assert handle.wait(10)
        assert handle.status == "done"
        assert handle.result == "late-result"

    def test_double_wait_is_safe(self):
        handle = submit_job(lambda: 7)
        assert handle.wait(10)
        assert handle.wait(10)       # the event stays set
        assert handle.wait(0.0)      # and a zero wait still reports done
        assert handle.result == 7

    def test_terminal_statuses_catalog(self):
        assert JOB_TERMINAL == {"done", "error", "timeout", "cancelled"}

    def test_describe_is_json_friendly(self):
        handle = submit_job(lambda: 1, name="probe")
        handle.wait(10)
        out = handle.describe()
        assert out["name"] == "probe"
        assert out["status"] == "done"
        assert out["finished_at"] >= out["submitted_at"]
        assert "error" not in out
        assert "traceback" not in out


class TestErrors:
    def test_exception_preserves_traceback_in_describe(self):
        def inner_boom():
            raise ValueError("the-distinctive-message")

        handle = submit_job(inner_boom)
        handle.wait(10)
        assert handle.status == "error"
        assert isinstance(handle.error, ValueError)
        out = handle.describe()
        assert out["error"] == "ValueError: the-distinctive-message"
        # the formatted traceback names the failing frame, so a polled
        # job failure is debuggable without server-side logs
        assert "inner_boom" in out["traceback"]
        assert "the-distinctive-message" in out["traceback"]

    def test_failed_job_has_no_result(self):
        handle = submit_job(lambda: 1 / 0)
        handle.wait(10)
        assert handle.status == "error"
        assert handle.result is None


class TestCancel:
    def test_cancel_pending_job_never_runs_fn(self):
        ran = threading.Event()
        handle = JobHandle(9999, name="never-ran")
        assert handle.cancel()
        # simulate the worker arriving after the cancel won the race
        handle._run(ran.set, (), {})
        assert not ran.is_set()
        assert handle.status == "cancelled"

    def test_cancel_running_job_discards_its_result(self):
        body, entered, release = _gated()
        handle = submit_job(body)
        entered.wait(10)
        assert handle.cancel()
        assert handle.status == "cancelled"
        assert isinstance(handle.error, RuntimeError)
        release.set()
        time.sleep(0.05)  # let the worker finish and lose the race
        assert handle.status == "cancelled"
        assert handle.result is None

    def test_cancel_is_idempotent_and_loses_to_done(self):
        handle = submit_job(lambda: "kept")
        handle.wait(10)
        assert not handle.cancel()   # already terminal: no transition
        assert handle.status == "done"
        assert handle.result == "kept"

    def test_wait_returns_on_cancel(self):
        body, entered, _release = _gated()
        handle = submit_job(body)
        entered.wait(10)
        handle.cancel()
        assert handle.wait(10)       # cancellation unblocks waiters


class TestTimeout:
    def test_slow_job_times_out(self):
        body, entered, release = _gated()
        handle = submit_job(body, timeout_s=0.05)
        entered.wait(10)
        assert handle.wait(10)
        assert handle.status == "timeout"
        assert isinstance(handle.error, TimeoutError)
        assert "0.05s budget" in str(handle.error)
        release.set()
        time.sleep(0.05)
        assert handle.status == "timeout"  # late result discarded
        assert handle.result is None

    def test_fast_job_beats_its_timeout(self):
        handle = submit_job(lambda: "quick", timeout_s=30.0)
        assert handle.wait(10)
        assert handle.status == "done"
        assert handle.result == "quick"
        assert handle._timer is None  # the timer was disarmed

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(SpecificationError, match="timeout_s"):
            submit_job(lambda: 1, timeout_s=0)

    # 1e297 s is finite but past threading.TIMEOUT_MAX: the timer thread
    # would die with an OverflowError instead of waiting
    @pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), 1e297])
    def test_unarmable_timeout_rejected(self, timeout_s):
        with pytest.raises(SpecificationError, match="timeout_s"):
            submit_job(lambda: 1, timeout_s=timeout_s)


class TestOnDone:
    def test_callback_fires_once_with_terminal_handle(self):
        seen = []
        handle = submit_job(lambda: 3, on_done=lambda h: seen.append(
            (h.status, h.result),
        ))
        handle.wait(10)
        assert seen == [("done", 3)]

    def test_callback_sees_error_status(self):
        seen = []
        handle = submit_job(
            lambda: 1 / 0, on_done=lambda h: seen.append(h.status),
        )
        handle.wait(10)
        assert seen == ["error"]

    def test_callback_not_refired_by_late_transitions(self):
        seen = []
        body, entered, release = _gated()
        handle = submit_job(body, on_done=lambda h: seen.append(h.status))
        entered.wait(10)
        handle.cancel()
        release.set()
        handle.wait(10)
        time.sleep(0.05)
        assert seen == ["cancelled"]

    def test_broken_callback_does_not_poison_the_job(self):
        def bad_observer(_handle):
            raise RuntimeError("observer bug")

        with pytest.warns(RuntimeWarning, match="on_done callback"):
            handle = submit_job(lambda: 5, on_done=bad_observer)
            handle.wait(10)
            # the warning fires on the worker thread inside _finish;
            # wait for publication before leaving the warns block
            time.sleep(0.05)
        assert handle.status == "done"
        assert handle.result == 5
