"""The planner comparison's runner: halt-and-recharge brownout recovery.

``run_policy`` configures every closed-loop leg to halt on brownout and
reconnect the load at 1.05 V.  The bench's scenarios barely brown out,
so this scenario forces it: the node starts at 1.2 V in darkness, the
oracle plan drains it, and the light only returns at 40 ms.  After the
return the oracle's first halt is the brownout (its dark-phase halt
ends at about 0.49 V, far below power-good, so that one was planned),
and the load must resume in the very step the node recharges past the
recovery voltage.
"""

import numpy as np
import pytest

from repro.core.system import paper_system
from repro.planner.bench import DURATION_S, WORKLOAD_CYCLES, run_policy
from repro.processor.workloads import Workload
from repro.pv.traces import step_trace

#: ``run_policy``'s power-good level (its docstring's 1.05 V).
RECOVERY_VOLTAGE_V = 1.05
LIGHT_ON_S = 40e-3


@pytest.fixture(scope="module")
def oracle_run():
    workload = Workload(
        name="planner-bench", cycles=WORKLOAD_CYCLES, deadline_s=DURATION_S
    )
    return run_policy(
        paper_system(),
        step_trace(0.0, 1.0, LIGHT_ON_S, DURATION_S),
        "oracle",
        workload,
        record_every=1,
    )


def test_dark_start_browns_out(oracle_run):
    assert oracle_run.brownouts >= 1


def test_load_resumes_at_the_recovery_voltage(oracle_run):
    running = oracle_run.frequency_hz > 0.0
    time_s = oracle_run.time_s
    node_v = oracle_run.node_voltage_v
    halts = np.nonzero(running[:-1] & ~running[1:])[0] + 1
    halt = halts[time_s[halts] >= LIGHT_ON_S][0]
    resume = halt + int(np.argmax(running[halt:]))
    assert running[resume], "the load never resumed after the brownout"
    # Samples are taken at step start, so power-good releases the load
    # on the first sample at or above the threshold: within one step's
    # swing of it.
    assert node_v[resume - 1] < RECOVERY_VOLTAGE_V <= node_v[resume]
