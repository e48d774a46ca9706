"""``import gch``, a full run (from a formula or from a table), the
selftest and ``verify-weights`` never load scipy; every export resolves.

gch depends on numpy alone; scipy is a test oracle only.  Each case runs in
a fresh interpreter, so modules loaded by other tests cannot hide a
regression.
"""

import ast
import importlib
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
    "run_from_file": (
        "import sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from gch import parse_config_file, run_experiment\n"
        "table = Path(sys.argv[2]) / 'pulse.txt'\n"
        "x = np.linspace(-40.0, 40.0, 2001)\n"
        "np.savetxt(table, np.column_stack([x, 0.05 / np.cosh(x) ** 2]))\n"
        "cfg = parse_config_file(sys.argv[1])\n"
        "cfg.kind, cfg.path = 'file', str(table)\n"
        "run_experiment(cfg, out_dir=Path(sys.argv[2]) / 'run')\n"
    ),
    "selftest": "import gch\ngch.selftest()",
    "verify_weights": (
        "import gch.cli\n"
        "gch.cli.main(['verify-weights', '--phi', '0.5,1,0.5,1', '--p', '2'])\n"
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


PACKAGE = ROOT / "src" / "gch"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"gch.{name}")
    assert module.__all__, f"gch.{name} declares no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_only_exported_names():
    # a name deleted from a module must leave both its __all__ and gch/__init__
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    unexported = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not alias.name.startswith("_")
        and alias.name not in importlib.import_module(f"gch.{node.module}").__all__
    ]
    assert unexported == []


def _unused_imports(path: Path) -> list:
    """Names a module imports but never uses, exports or marks ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): a.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): a.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    lines = source.splitlines()
    return [
        f"{path.name}:{lineno} {name}"
        for name, lineno in imported.items()
        if name not in used | exported and "# noqa: F401" not in lines[lineno - 1]
    ]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__"),
                         ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert _unused_imports(path) == []
