"""The benchmark still runs against the program: each workload of
`perfbench` sets up, makes one pass and passes its own check, and a traced
pass of `plan_blocked` passes its trace check.

The benchmark reaches into the program by name (the built-in app names, the
wrapped `Kernel.on`, `Controller._run_app` and `apply_action`), so a change
that breaks that coupling fails here rather than in a benchmark run. The
repository root is on pytest's `pythonpath` for the `perfbench` import.
"""

import pytest

from perfbench import tracing
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_check(tmp_path, name):
    workload = WORKLOADS[name](str(tmp_path), 0)
    workload.setup()
    workload.clear()
    assert workload.check(workload.run_pass()) == []


def test_traced_plan_blocked_passes_its_trace_check(tmp_path):
    workload = WORKLOADS["plan_blocked"](str(tmp_path), 0)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        workload.clear()
        tracer.enabled = True
        try:
            result = workload.run_pass()
        finally:
            tracer.enabled = False
        assert workload.check(result) == []
        assert workload.check_trace(tracer.summary()) == []
    finally:
        uninstall()
