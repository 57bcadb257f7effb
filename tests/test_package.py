"""Package-level checks: the docstring example runs, and every function the
benchmark tracer wraps still exists."""
import importlib
import importlib.util
import textwrap
from pathlib import Path

import radialopf

ROOT = Path(__file__).resolve().parents[1]


def test_package_docstring_example_runs(tmp_path, monkeypatch):
    # the indented block of the package docstring, run from a directory
    # that holds no case file
    lines = radialopf.__doc__.split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith("    "))
    end = next(i for i in range(start, len(lines))
               if lines[i] and not lines[i].startswith("    "))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(textwrap.dedent("\n".join(lines[start:end])), scope)
    assert scope["sol"].status == "optimal"
    assert len(scope["table"].bus_ids) == 32


def test_tracer_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.WRAPPED.items()
               for name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []
