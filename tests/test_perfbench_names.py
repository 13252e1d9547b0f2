"""The benchmark in perfbench/ binds swingsim names by hand: the tracer
wraps every import site it lists and rejects a missing or unwrapped one, and
the passes read a few names at run time. A refactor of src/ that drops one
of them breaks only the benchmark, so this checks them with the suite."""
import os
import subprocess
import sys

from swingsim import sim_harness, swing_planner

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# each workload's inputs built, then every traced site wrapped, as a traced
# pass does before its first op; in a child, as install patches the modules
INSTALL = """
import os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import passrun, tracer, workloads
package, modules = passrun.import_swingsim()
with tempfile.TemporaryDirectory() as tmp:
    for name in sorted(workloads.WORKLOADS):
        passrun.build_inputs(name, workloads.DEFAULT_SEED, modules, os.path.join(tmp, name))
    tracer.Tracer(tmp).install(package, modules)
"""


def test_the_names_perfbench_binds_resolve():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # write nothing under perfbench/
    done = subprocess.run([sys.executable, "-c", INSTALL, PERFBENCH], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # what the passes read once installed
    for name in ("summary_json", "write_trial_index_csv", "trial_config_for"):
        assert callable(getattr(sim_harness, name)), name
    assert sim_harness.SUCCESSES
    assert callable(sim_harness.CampaignConfig.reproduction_profile)
    assert callable(swing_planner._peak_cached.cache_info)
    assert "phase_after" in swing_planner.PlannerCommand._fields
