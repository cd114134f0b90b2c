"""The package ``__init__`` files resolve their re-exports lazily.

A spawned pool worker unpickles ``repro.parallel.pool._pool_worker_main``,
which runs ``repro/__init__`` and ``repro/parallel/__init__``.  Neither may
import a subpackage by itself, so the worker loads only the modules it runs
(graph, matching, rules, repair, the worker side of ``repro.parallel``).
Each check runs in a fresh interpreter, since this test process has long
imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: subpackages a pool worker never runs
NOT_IN_WORKER = ("analysis", "api", "baselines", "datasets", "errors",
                 "metrics", "experiments", "service", "ingest", "durability")


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    return the JSON document it prints."""
    env = {**os.environ, "PYTHONPATH": SRC}
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True)
    return json.loads(completed.stdout)


def test_worker_modules_import_no_coordinator_subpackage():
    loaded = _run(
        "import json, sys\n"
        "import repro.parallel.pool, repro.parallel.worker\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert "repro.parallel.worker" in loaded
    for name in NOT_IN_WORKER:
        package = f"repro.{name}"
        assert not [module for module in loaded
                    if module == package or module.startswith(package + ".")], \
            f"{package} was imported by the worker modules"
    # the coordinator side of repro.parallel stays unloaded too
    assert "repro.parallel.backend" not in loaded
    assert "repro.parallel.merge" not in loaded


def test_public_names_resolve_lazily():
    result = _run(
        "import json, sys\n"
        "import repro, repro.parallel\n"
        "eager = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "missing = [f'{package.__name__}.{name}'\n"
        "           for package in (repro, repro.parallel)\n"
        "           for name in package.__all__\n"
        "           if getattr(package, name, None) is None]\n"
        "undir = [f'{package.__name__}.{name}'\n"
        "         for package in (repro, repro.parallel)\n"
        "         for name in package.__all__ if name not in dir(package)]\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "starred = sorted(set(repro.__all__) - set(namespace))\n"
        "print(json.dumps({'eager': eager, 'missing': missing,\n"
        "                  'undir': undir, 'starred': starred}))\n")
    assert result["eager"] == ["repro.parallel"]
    assert result["missing"] == []
    assert result["undir"] == []
    assert result["starred"] == []


@pytest.mark.parametrize("package", ["repro", "repro.parallel"])
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(package), "no_such_name")
