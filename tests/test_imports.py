"""``import gch`` and a full run never load scipy.

scipy is imported on demand only by the finite-p kernel quadrature in
``gch.weights`` and by file initial conditions in ``gch.grid``.  Each case
runs in a fresh interpreter, so modules loaded by other tests cannot hide
a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "import_gch": "import gch",
    "import_cli": "import gch.cli",
    "run_showcase": (
        "import sys\n"
        "from gch import parse_config_file, run_experiment\n"
        "run_experiment(parse_config_file(sys.argv[1]), out_dir=sys.argv[2])\n"
    ),
}


@pytest.mark.parametrize("case", sorted(SCRIPTS))
def test_no_scipy_in_sys_modules(case, tmp_path):
    script = SCRIPTS[case] + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "configs" / "showcase.cfg"), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
