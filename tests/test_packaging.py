"""numpy is the only runtime dependency: imports, declared dependencies and import cost."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcadc"


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "qcadc"}
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    foreign = {f.name: sorted(_top_level_imports(f) - allowed) for f in files}
    assert not any(foreign.values()), foreign


def test_declared_dependencies_are_numpy_only():
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.M | re.S)
    assert block is not None
    names = re.findall(r'^\s*"([A-Za-z0-9_.\-]+)', block.group(1), re.M)
    assert names == ["numpy"]


def _loaded_by_cli_import(*packages: str) -> str:
    """The modules of ``packages`` that a fresh ``import qcadc.cli`` loads, as a list."""
    code = ("import sys; import qcadc.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    assert _loaded_by_cli_import("concurrent", "multiprocessing") == "[]"


def test_every_exported_name_resolves():
    import qcadc
    assert len(set(qcadc.__all__)) == len(qcadc.__all__)
    missing = [name for name in qcadc.__all__ if not hasattr(qcadc, name)]
    assert missing == []
