"""The package ``__init__`` files resolve their re-exports lazily.

A spawned pool worker unpickles ``repro.parallel.pool._pool_worker_main``,
which runs ``repro/__init__`` and ``repro/parallel/__init__``.  Neither may
import a subpackage by itself, so the worker loads only the modules it runs
(graph, matching, rules, repair, the worker side of ``repro.parallel``).
Likewise ``repro.ingest`` and ``repro.durability`` load asyncio and the
socket stack only for the names that use them.  Each check runs in a fresh
interpreter, since this test process has long imported everything.
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


#: the packages whose ``__init__`` resolves its re-exports on first access
LAZY_PACKAGES = ("repro", "repro.parallel", "repro.ingest", "repro.durability")


def test_public_names_resolve_lazily():
    result = _run(
        "import importlib, json, sys\n"
        f"packages = [importlib.import_module(name) for name in {LAZY_PACKAGES!r}]\n"
        "eager = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "missing = [f'{package.__name__}.{name}'\n"
        "           for package in packages\n"
        "           for name in package.__all__\n"
        "           if getattr(package, name, None) is None]\n"
        "undir = [f'{package.__name__}.{name}'\n"
        "         for package in packages\n"
        "         for name in package.__all__ if name not in dir(package)]\n"
        "starred = []\n"
        "for package in packages:\n"
        "    namespace = {}\n"
        "    exec(f'from {package.__name__} import *', namespace)\n"
        "    starred += [f'{package.__name__}.{name}'\n"
        "                for name in set(package.__all__) - set(namespace)]\n"
        "print(json.dumps({'eager': eager, 'missing': missing,\n"
        "                  'undir': undir, 'starred': sorted(starred)}))\n")
    assert result["eager"] == sorted(["repro._lazy", *LAZY_PACKAGES[1:]])
    assert result["missing"] == []
    assert result["undir"] == []
    assert result["starred"] == []


#: standard-library stacks only the asyncio facade and the read replicas use
HEAVY_STDLIB = ("asyncio", "ssl", "socket", "subprocess")


def test_serving_imports_load_no_async_or_socket_stack():
    """A service process with an ingest front loads neither asyncio (only
    ``AsyncRepairService`` needs it) nor the socket stack (only the read
    replicas do); both names still resolve on first access."""
    result = _run(
        "import json, sys\n"
        "from repro.ingest import IngestFront, TenantQuota\n"
        "from repro.service import GraphRepairService\n"
        f"served = [m for m in {HEAVY_STDLIB!r} if m in sys.modules]\n"
        "from repro.ingest import AsyncRepairService\n"
        "from repro.durability import ReadReplica\n"
        "print(json.dumps({'served': served,\n"
        "                  'resolved': [AsyncRepairService.__module__,\n"
        "                               ReadReplica.__module__],\n"
        "                  'asyncio': 'asyncio' in sys.modules,\n"
        "                  'socket': 'socket' in sys.modules}))\n")
    assert result["served"] == []
    assert result["resolved"] == ["repro.ingest.aio",
                                  "repro.durability.replication"]
    assert result["asyncio"] and result["socket"]


def test_submodule_export_resolves_to_the_submodule():
    import repro.durability
    from repro.durability import codec

    assert codec is importlib.import_module("repro.durability.codec")
    assert repro.durability.codec is codec


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(package), "no_such_name")
