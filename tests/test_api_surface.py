"""Guards on the public API surface.

Three invariants:

* every name a ``repro`` package exports via ``__all__`` actually resolves
  (no stale exports after refactors);
* every export of the six documented packages (core, obs, experiments,
  parallel, service, net) appears in ``docs/API.md``, so the reference
  cannot silently fall behind the code;
* every name a package's tables in ``docs/API.md`` list resolves in that
  package, so no row outlives the code it documents.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

DOCUMENTED_PACKAGES = [
    "repro.core",
    "repro.obs",
    "repro.experiments",
    "repro.parallel",
    "repro.service",
    "repro.net",
]
API_MD = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def _all_repro_modules():
    """Every importable module under the repro package."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return names


@pytest.mark.parametrize("module_name", _all_repro_modules())
def test_every_dunder_all_entry_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip(f"{module_name} defines no __all__")
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ exports unresolvable names: {missing}"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ has duplicates"


@pytest.mark.parametrize("module_name", DOCUMENTED_PACKAGES)
def test_api_md_documents_every_export(module_name):
    text = API_MD.read_text()
    module = importlib.import_module(module_name)
    undocumented = [name for name in module.__all__ if f"`{name}`" not in text]
    assert not undocumented, (
        f"docs/API.md is missing {module_name} exports: {undocumented}"
    )


def _api_md_table_names():
    """``{package: names}``: every backticked name in the first column of
    the tables under each ``## `repro.<package>``` section of API.md."""
    names = {}
    package = None
    for line in API_MD.read_text().splitlines():
        heading = re.match(r"## `(repro\.\w+)`", line)
        if heading:
            package = heading.group(1)
            names[package] = []
        elif package is not None and line.startswith("| `"):
            names[package] += re.findall(r"`([^`]+)`", line.split("|")[1])
    return names


@pytest.mark.parametrize("module_name", DOCUMENTED_PACKAGES)
def test_api_md_rows_resolve(module_name):
    """The reverse of the check above: a row whose name no longer
    resolves documents code that is gone."""
    module = importlib.import_module(module_name)
    names = _api_md_table_names()[module_name]
    assert names, f"docs/API.md has no table rows for {module_name}"
    stale = [name for name in names if not hasattr(module, name)]
    assert not stale, f"docs/API.md lists names {module_name} lacks: {stale}"


def test_api_md_section_per_package():
    text = API_MD.read_text()
    for module_name in DOCUMENTED_PACKAGES:
        assert f"`{module_name}`" in text, f"docs/API.md lacks a {module_name} section"


def test_top_level_reexports_parallel_entry_points():
    assert repro.BatchedAllocator is importlib.import_module(
        "repro.parallel"
    ).BatchedAllocator
    assert "sweep_parallel" in repro.__all__


def test_continuous_batching_exports_guarded():
    # Explicitly pin the continuous-batching surface: these names being in
    # __all__ of documented packages is what routes them through the
    # docs/API.md coverage test above.
    parallel = importlib.import_module("repro.parallel")
    for name in ("ContinuousBatcher", "RowResult", "ChainLink",
                 "solve_chains"):
        assert name in parallel.__all__, name
    service = importlib.import_module("repro.service")
    for name in ("ContinuousBatchKey", "continuous_batch_key",
                 "REJECT_SOLVER_ERROR"):
        assert name in service.__all__, name
    assert repro.ContinuousBatcher is parallel.ContinuousBatcher
    assert "ContinuousBatcher" in repro.__all__
