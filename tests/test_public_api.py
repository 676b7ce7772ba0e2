"""API stability tests: the documented surface must exist and import."""

import importlib
import subprocess
import sys

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_present(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_core_symbols_exported(self):
        for name in (
            "paper_system",
            "HolisticEnergyManager",
            "Policy",
            "OperatingPointOptimizer",
            "HolisticMepOptimizer",
            "SprintScheduler",
            "TransientSimulator",
        ):
            assert name in repro.__all__


class TestSubpackagesImport:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.pv",
            "repro.regulators",
            "repro.processor",
            "repro.processor.image",
            "repro.storage",
            "repro.monitor",
            "repro.harvesters",
            "repro.core",
            "repro.sim",
            "repro.baselines",
            "repro.experiments",
            "repro.intermittent",
            "repro.parallel",
            "repro.resilience",
            "repro.telemetry",
            "repro.fleet",
            "repro.planner",
            "repro.cli",
        ],
    )
    def test_imports_cleanly(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} is missing a module docstring"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.pv",
            "repro.regulators",
            "repro.processor",
            "repro.core",
            "repro.sim",
            "repro.harvesters",
            "repro.intermittent",
            "repro.parallel",
            "repro.resilience",
            "repro.telemetry",
            "repro.fleet",
            "repro.planner",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        imported = importlib.import_module(module)
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module}.{name}"


class TestQuickstartExample:
    def test_runs_and_prints_the_headline(self):
        """The README's front-door example must work end to end."""
        result = subprocess.run(
            [sys.executable, "examples/quickstart.py"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "holistic-performance" in result.stdout
        assert "Holistic co-optimization vs direct connection" in result.stdout


class TestImportHygiene:
    def test_characterized_system_loads_no_scipy(self):
        """numpy is the only numerical dependency: importing the package
        and characterizing the shared system (LUT build, MPP searches)
        must not pull in scipy, even where it is installed."""
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.parallel.cache import characterized_system\n"
            "characterized_system()\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
