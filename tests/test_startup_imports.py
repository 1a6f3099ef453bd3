"""What each entry point imports at start-up.

Package re-exports resolve on first use, and each CLI command imports what
it runs, so a short-lived process loads only the modules it needs.  These
checks count modules rather than time them, so they hold on any machine.
Each runs in a fresh interpreter: this one has imported everything.
"""

import json
import subprocess
import sys

import pytest

# The imports a sweep process makes before its first sweep call.
SWEEP_IMPORTS = (
    "import repro.core.initials, repro.core.model, repro.network.builders, repro.parallel\n"
)
REPORT_MODULES = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
)


def _fresh(code):
    """Run ``code`` in a fresh interpreter and parse its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _under(modules, packages):
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in packages))


def test_import_repro_loads_only_the_package():
    assert _fresh("import repro" + REPORT_MODULES) == ["repro", "repro._lazy"]


def test_sweep_imports_load_no_serving_or_experiment_code():
    loaded = _fresh(SWEEP_IMPORTS + REPORT_MODULES)
    assert _under(loaded, ["repro.net", "repro.service", "repro.experiments",
                           "repro.distributed", "repro.multicopy"]) == []


def test_sweep_calls_import_nothing_more():
    code = SWEEP_IMPORTS + """
import json, sys
import numpy as np
from repro.core.initials import paper_skewed_allocation
from repro.core.model import FileAllocationProblem
from repro.network.builders import ring_graph
from repro.parallel import BatchedAllocator, BatchedProblem, ChainLink, solve_chains

topology = ring_graph(6)
problems = [FileAllocationProblem.from_topology(topology, np.full(6, 0.1), k=k, mu=1.5)
            for k in (0.5, 1.0, 2.0)]
x0 = paper_skewed_allocation(6)
before = set(sys.modules)
BatchedAllocator(BatchedProblem.from_problems(problems), alpha=0.3).run(np.tile(x0, (3, 1)))
solve_chains([[ChainLink(problem=p, alpha=0.3, x0=x0) for p in problems]])
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'repro')))
"""
    assert _fresh(code) == []


@pytest.mark.parametrize(
    "code, experiments",
    [
        ("import repro.cli", "repro.experiments"),
        # A sweep prints a SweepResult, from repro.experiments.sweeps.
        ("from repro.cli import main\n"
         "main(['sweep', '--param', 'k', '--grid', '0.5:2.5:4', '--nodes', '6'])",
         "repro.experiments.figures"),
    ],
    ids=["import", "sweep"],
)
def test_cli_loads_no_figure_code(code, experiments):
    loaded = _fresh(code + REPORT_MODULES)
    assert _under(loaded, [experiments, "repro.multicopy", "repro.baselines",
                           "repro.distributed"]) == []


def test_building_the_cli_parser_loads_no_service_stack():
    loaded = _fresh("from repro.cli import _build_parser\n_build_parser()" + REPORT_MODULES)
    assert _under(loaded, ["repro.service.service", "repro.parallel",
                           "repro.core.algorithm"]) == []


def test_star_import_and_dir_list_every_export():
    code = """
import json
import repro
names = list(repro.__all__)
listed = set(dir(repro))
namespace = {}
exec("from repro import *", namespace)
print(json.dumps([[n for n in names if n not in namespace], sorted(set(names) - listed)]))
"""
    assert _fresh(code) == [[], []]


def test_no_export_is_shadowed_by_a_submodule():
    """Importing every submodule leaves each package export bound to its
    value; a lazy name equal to a submodule's name would become the module."""
    code = """
import importlib, json, pkgutil, types
import repro
modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)
packages = [m for m in ["repro", *modules] if hasattr(importlib.import_module(m), "__path__")]
print(json.dumps([f"{p}.{n}" for p in packages for n in importlib.import_module(p).__all__
                  if isinstance(getattr(importlib.import_module(p), n), types.ModuleType)]))
"""
    assert _fresh(code) == []
