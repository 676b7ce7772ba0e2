"""Per-rule fixtures: each REP rule fires on a crafted violation and
stays silent on the fixed form."""

from __future__ import annotations

from tests.lint.conftest import rule_ids


# -- REP001: unseeded randomness ---------------------------------------------


def test_rep001_fires_on_numpy_global_rng(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "def draw():\n"
        "    return np.random.uniform(0.0, 1.0)\n"
    )})
    assert "REP001" in rule_ids(diags)


def test_rep001_fires_on_unseeded_default_rng(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "def draw():\n"
        "    return np.random.default_rng().normal()\n"
    )})
    assert "REP001" in rule_ids(diags)


def test_rep001_fires_on_stdlib_random(lint_files):
    diags = lint_files({"mod.py": (
        "import random\n"
        "def draw():\n"
        "    return random.random()\n"
    )})
    assert "REP001" in rule_ids(diags)


def test_rep001_fires_on_from_import(lint_files):
    diags = lint_files({"mod.py": (
        "from random import choice\n"
        "def pick(items):\n"
        "    return choice(items)\n"
    )})
    assert "REP001" in rule_ids(diags)


def test_rep001_silent_on_seeded_default_rng(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "def draw(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.normal()\n"
    )})
    assert rule_ids(diags) == []


def test_rep001_silent_on_seeded_random_instance(lint_files):
    diags = lint_files({"mod.py": (
        "import random\n"
        "def draw(seed):\n"
        "    return random.Random(seed).random()\n"
    )})
    assert rule_ids(diags) == []


def test_rep001_silent_on_unrelated_attribute(lint_files):
    # `something.random.uniform` where `something` is not numpy.
    diags = lint_files({"mod.py": (
        "import other\n"
        "def draw():\n"
        "    return other.random.uniform(0.0, 1.0)\n"
    )})
    assert rule_ids(diags) == []


# -- REP002: wall-clock in deterministic packages ----------------------------


def test_rep002_fires_on_time_time_in_sim(lint_files):
    diags = lint_files({"sim/engine.py": (
        "import time\n"
        "def step():\n"
        "    return time.time()\n"
    )})
    assert "REP002" in rule_ids(diags)


def test_rep002_fires_on_datetime_now_in_faults(lint_files):
    diags = lint_files({"faults/draws.py": (
        "from datetime import datetime\n"
        "def stamp():\n"
        "    return datetime.now()\n"
    )})
    assert "REP002" in rule_ids(diags)


def test_rep002_fires_on_os_urandom_in_parallel(lint_files):
    diags = lint_files({"parallel/pool.py": (
        "import os\n"
        "def token():\n"
        "    return os.urandom(8)\n"
    )})
    assert "REP002" in rule_ids(diags)


def test_rep002_silent_outside_deterministic_packages(lint_files):
    diags = lint_files({"bench/timing.py": (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )})
    assert rule_ids(diags) == []


def test_rep002_allows_perf_counter_in_parallel(lint_files):
    # Measuring elapsed wall time for progress reporting is legitimate.
    diags = lint_files({"parallel/progress.py": (
        "import time\n"
        "def started():\n"
        "    return time.perf_counter()\n"
    )})
    assert rule_ids(diags) == []


# -- REP003: unit discipline --------------------------------------------------


def test_rep003_fires_on_large_literal(lint_files):
    diags = lint_files({"mod.py": (
        "def build(make):\n"
        "    return make(frequency_hz=4000000.0)\n"
    )})
    assert "REP003" in rule_ids(diags)


def test_rep003_fires_on_tiny_literal(lint_files):
    diags = lint_files({"mod.py": (
        "def build(make):\n"
        "    return make(settle_time_s=2e-5)\n"
    )})
    assert "REP003" in rule_ids(diags)


def test_rep003_silent_through_units_helper(lint_files):
    diags = lint_files({"mod.py": (
        "from repro.units import mega_hertz\n"
        "def build(make):\n"
        "    return make(frequency_hz=mega_hertz(4.0))\n"
    )})
    assert rule_ids(diags) == []


def test_rep003_silent_on_in_scale_literal_and_zero(lint_files):
    diags = lint_files({"mod.py": (
        "def build(make):\n"
        "    return make(threshold_v=0.55, offset_v=0.0, count=5000)\n"
    )})
    assert rule_ids(diags) == []


# -- REP004: spec/config mutation ---------------------------------------------


def test_rep004_fires_on_attribute_assignment(lint_files):
    diags = lint_files({"mod.py": (
        "def tweak(spec: FaultSpec):\n"
        "    spec.runs = 10\n"
        "    return spec\n"
    )})
    assert "REP004" in rule_ids(diags)


def test_rep004_fires_on_setattr(lint_files):
    diags = lint_files({"mod.py": (
        "def tweak(config: 'CampaignConfig | None'):\n"
        "    setattr(config, 'runs', 10)\n"
        "    return config\n"
    )})
    assert "REP004" in rule_ids(diags)


def test_rep004_silent_on_dataclasses_replace(lint_files):
    diags = lint_files({"mod.py": (
        "import dataclasses\n"
        "def tweak(spec: FaultSpec):\n"
        "    return dataclasses.replace(spec, runs=10)\n"
    )})
    assert rule_ids(diags) == []


def test_rep004_silent_on_non_spec_parameters(lint_files):
    diags = lint_files({"mod.py": (
        "def tweak(record: RunRecord):\n"
        "    record.runs = 10\n"
        "    return record\n"
    )})
    assert rule_ids(diags) == []


# -- REP005: module-level mutable state in worker-imported modules ------------

_WORKER = (
    "from repro.parallel.executor import run_sharded\n"
    "import state\n"
    "def task(x):\n"
    "    return x\n"
    "def campaign(items):\n"
    "    return run_sharded(task, items)\n"
)


def test_rep005_fires_on_cache_dict_in_worker_closure(lint_files):
    diags = lint_files({
        "worker.py": _WORKER,
        "state.py": "cache = {}\n",
    })
    assert "REP005" in rule_ids(diags)
    assert any("state.py" in d.path for d in diags)


def test_rep005_fires_in_the_run_sharded_module_itself(lint_files):
    diags = lint_files({"worker.py": _WORKER + "pending = []\n"})
    assert "REP005" in rule_ids(diags)


def test_rep005_silent_outside_worker_closure(lint_files):
    diags = lint_files({
        "worker.py": _WORKER,
        "unrelated.py": "cache = {}\n",
    })
    assert rule_ids(diags) == []


def test_rep005_exempts_unmutated_constant_tables(lint_files):
    diags = lint_files({
        "worker.py": _WORKER,
        "state.py": (
            "DRIVERS = {'fig2': 'fig2_iv_curves'}\n"
            "__all__ = ['DRIVERS']\n"
        ),
    })
    assert rule_ids(diags) == []


def test_rep005_flags_mutated_upper_case_tables(lint_files):
    diags = lint_files({
        "worker.py": _WORKER,
        "state.py": (
            "REGISTRY = {}\n"
            "def register(name, value):\n"
            "    REGISTRY[name] = value\n"
        ),
    })
    assert "REP005" in rule_ids(diags)


# -- REP006: seed threading ---------------------------------------------------


def test_rep006_fires_on_public_function_without_seed_param(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "def jitter(values, scale):\n"
        "    rng = np.random.default_rng(scale)\n"
        "    return values + rng.normal()\n"
    )})
    assert "REP006" in rule_ids(diags)


def test_rep006_fires_on_module_level_rng(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "RNG = np.random.default_rng(42)\n"
    )})
    assert "REP006" in rule_ids(diags)


def test_rep006_silent_with_seed_parameter(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "def jitter(values, seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return values + rng.normal()\n"
    )})
    assert rule_ids(diags) == []


def test_rep006_silent_when_seeded_from_self(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "class Comparator:\n"
        "    def __init__(self, seed):\n"
        "        self.seed = seed\n"
        "    def reset(self):\n"
        "        self._rng = np.random.default_rng(self.seed)\n"
    )})
    assert rule_ids(diags) == []


def test_rep006_leaves_unseeded_construction_to_rep001(lint_files):
    diags = lint_files({"mod.py": (
        "import numpy as np\n"
        "def jitter(values):\n"
        "    return np.random.default_rng().normal()\n"
    )})
    assert rule_ids(diags) == ["REP001"]
