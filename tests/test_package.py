"""The package's public surface and its runtime dependencies."""

import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import rotorkick

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_holds_no_modules():
    assert not [name for name in rotorkick.__all__
                if isinstance(getattr(rotorkick, name), types.ModuleType)]


def test_all_holds_the_quick_start_names():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    names = re.search(r"from rotorkick import \((.*?)\)", block, re.S).group(1)
    names = [n.strip() for n in names.split(",")]
    assert "propagate_spectral" in names
    assert set(names) <= set(rotorkick.__all__)


def test_cli_imports_neither_numba_nor_scipy(tmp_path):
    # -I: no PYTHONPATH, user site or working directory on the child's path,
    # so only this checkout's src and the interpreter's own packages are seen
    src = str(Path(rotorkick.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        import rotorkick.cli
        assert rotorkick.__file__.startswith({src!r}), rotorkick.__file__
        print(sorted(m for m in ("numba", "scipy") if m in sys.modules))
    """)
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_starts_no_worker_pool(tmp_path):
    # the sweep's worker threads and their module come on the first split stack
    src = str(Path(rotorkick.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import sys, threading
        sys.path.insert(0, {src!r})
        import rotorkick
        assert rotorkick.__file__.startswith({src!r}), rotorkick.__file__
        print("concurrent.futures" in sys.modules, threading.active_count())
    """)
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False 1"
