import importlib
import pkgutil
from pathlib import Path

import pytest

import cyclecast

MODULES = ["cyclecast"] + [f"cyclecast.{info.name}" for info in pkgutil.iter_modules(cyclecast.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert len(exports) == len(set(exports)), f"{name}.__all__ lists a name twice"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def test_readme_library_usage_runs(capsys):
    # The "Library usage" block of README.md, run as it is, so it cannot go stale.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library usage", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("1008 ")
