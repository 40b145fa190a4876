"""Every benchmark workload runs in-process at its tiny size.

``perfbench/workloads.py`` calls the program through module attributes
looked up at call time: ``mode=`` and ``sigma_x=`` of the FD oracle,
``cfg.build_levy()``, ``teugels.basis_for``, ``pdie.PidieGridSpec``.  A
name that goes missing would fail only the benchmark; here each
workload's ``setup``, ``reset``, ``call`` and ``check`` run once, and the
outputs it names must come back digested.  The gates and the FD ladder's
monotonicity are the benchmark's to judge, so they are not asserted.  The
module is read, compiled and run in memory, so nothing under
``perfbench/`` is written.
"""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    # @dataclass reads its class's module from sys.modules while the class is built
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


WORKLOADS = load_workloads().WORKLOADS


# at 200 paths x 10 steps the sweep reduces its first steps' designs and warns
@pytest.mark.filterwarnings("ignore::levylab.errors.SingularRegressionWarning")
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    workload = WORKLOADS[name]
    state = workload.setup(ROOT, 1, True, tmp_path)
    workload.reset(state)
    outcome = workload.check(state, workload.call(state))
    named = getattr(workload, "outputs", ("u_ladder",))  # the FD ladder digests its grids as one
    missing = [output for output in named if output not in outcome.digests]
    assert not missing, (missing, outcome.failures)
