"""API stability tests: the documented surface must exist and import."""

import ast
import importlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The one package ``__init__`` that does work at import time (it builds
#: the rule registry); every other one re-exports lazily.
EAGER_PACKAGES = {"repro.lint.rules"}


def fresh_interpreter(script, stdin=None):
    """Run ``script`` in a new interpreter; return its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode()


def loaded_after(script):
    """The ``repro`` modules and selected dependencies ``script`` loads."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'repro'"
        " or m.startswith('repro.') or m in ('numpy', 'multiprocessing'))))\n"
    )
    return json.loads(fresh_interpreter(script + report).splitlines()[-1])


def _package_inits():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("__init__.py")):
        parts = path.relative_to(root.parent).parent.parts
        yield ".".join(parts), path


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

    def test_import_repro_loads_no_model(self):
        loaded = loaded_after("import repro")
        assert len([m for m in loaded if m.startswith("repro")]) <= 2, loaded
        assert "numpy" not in loaded

    def test_characterized_system_loads_only_the_models(self):
        loaded = loaded_after(
            "import repro\n"
            "from repro.parallel.cache import characterized_system\n"
            "characterized_system()\n"
        )
        ours = [m for m in loaded if m.startswith("repro")]
        assert len(ours) <= 30, ours
        for package in ("faults", "fleet", "planner", "resilience",
                        "experiments", "intermittent", "lint"):
            prefix = f"repro.{package}"
            assert not [m for m in ours if m == prefix
                        or m.startswith(prefix + ".")], package
        assert "multiprocessing" not in loaded

    @pytest.mark.parametrize(
        "argv", [["--help"], ["lint", "--help"], ["lint", "src/repro/units.py"]]
    )
    def test_cli_loads_only_its_command(self, argv):
        """``python -m repro`` help and the linter never import the
        models or numpy."""
        loaded = loaded_after(
            "import runpy, sys\n"
            f"sys.argv = ['repro'] + {argv!r}\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
        )
        assert "numpy" not in loaded
        assert "repro.core.system" not in loaded

    @pytest.mark.parametrize("argv", [["--help"], ["faults", "--help"]])
    def test_cli_help_loads_no_linter(self, argv):
        """The lint subcommand's options are added only when it runs, so
        other commands' help never imports the linter."""
        loaded = loaded_after(
            "import runpy, sys\n"
            f"sys.argv = ['repro'] + {argv!r}\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
        )
        assert "repro.cli" in loaded
        assert not [m for m in loaded
                    if m == "repro.lint" or m.startswith("repro.lint.")]


class TestLazyExports:
    @pytest.mark.parametrize(
        "package, path",
        list(_package_inits()),
        ids=[package for package, _ in _package_inits()],
    )
    def test_table_matches_type_checking_imports_and_all(self, package, path):
        """The lazy table, the ``TYPE_CHECKING`` imports that type checkers
        and the lint call graph read, and ``__all__`` name the same
        exports."""
        tree = ast.parse(path.read_text())
        typed, table, exported, eager = set(), set(), None, set()
        for node in tree.body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                for imp in node.body:
                    assert isinstance(imp, ast.ImportFrom), ast.unparse(imp)
                    typed |= {(imp.module, alias.name) for alias in imp.names}
            elif isinstance(node, ast.Assign):
                target = ast.unparse(node.targets[0])
                if target == "__all__":
                    exported = set(ast.literal_eval(node.value))
                elif isinstance(node.value, ast.Call):
                    assert ast.unparse(node.value.func) == "lazy_exports"
                    literal = ast.literal_eval(node.value.args[2])
                    table = {(module, name) for module, names in literal.items()
                             for name in names}
                else:
                    eager.add(target)
        if package in EAGER_PACKAGES:
            assert not table
            return
        assert exported is not None, f"{package} has no __all__"
        assert table, f"{package} has no lazy table"
        assert table == typed
        assert {name for _, name in table} == exported - eager

    def test_dir_and_star_import_cover_all(self):
        names = json.loads(fresh_interpreter(
            "import json, repro\n"
            "listed = set(dir(repro))\n"
            "namespace = {}\n"
            "exec('from repro import *', namespace)\n"
            "print(json.dumps([[n for n in repro.__all__ if n not in listed],"
            " [n for n in repro.__all__ if n not in namespace]]))\n"
        ))
        assert names == [[], []]

    def test_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError,
                           match="^module 'repro' has no attribute 'no_such_name'$"):
            repro.no_such_name
        with pytest.raises(AttributeError,
                           match="^module 'repro.pv' has no attribute 'nope'$"):
            repro.pv.nope

    def test_submodules_resolve_as_attributes(self):
        out = fresh_interpreter(
            "import repro\n"
            "print(repro.faults.campaign.CampaignSummary.__qualname__)\n"
        )
        assert out.strip() == "CampaignSummary"

    def test_pickled_summary_loads_after_import_repro_only(self):
        from repro.faults import CampaignConfig, FaultSpec, run_transient_campaign

        summary = run_transient_campaign(
            FaultSpec(), CampaignConfig(runs=1, duration_s=4e-3, dim_time_s=2e-3)
        )
        out = fresh_interpreter(
            "import pickle, sys\n"
            "import repro\n"
            "summary = pickle.loads(sys.stdin.buffer.read())\n"
            "print(type(summary).__module__, summary.runs)\n",
            stdin=pickle.dumps(summary),
        )
        assert out.split() == ["repro.faults.campaign", "1"]
