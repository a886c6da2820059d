"""The package's public surface, its runtime dependencies and its one eigensolve."""

import ast
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
    # so only this checkout's src and the interpreter's own packages are seen;
    # the import builds no argument parser either, which comes on first use.
    # -I also drops PYTHONDONTWRITEBYTECODE, so -B keeps the children from
    # writing bytecode into src
    src = str(Path(rotorkick.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import sys
        assert sys.flags.dont_write_bytecode
        sys.path.insert(0, {src!r})
        import rotorkick.cli
        assert rotorkick.__file__.startswith({src!r}), rotorkick.__file__
        print(sorted(m for m in ("numba", "scipy") if m in sys.modules),
              rotorkick.cli._build_parser.cache_info().currsize)
    """)
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[] 0"


def test_cli_and_figures_load_no_network_stack(tmp_path):
    # the SVG labels are escaped locally: xml.sax.saxutils would bring in
    # urllib.request and with it http.client, ssl, socket, email and hashlib
    src = str(Path(rotorkick.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        import rotorkick.cli, rotorkick.svgplot
        assert rotorkick.__file__.startswith({src!r}), rotorkick.__file__
        print(sorted(m for m in ("xml.sax", "urllib.request", "http.client", "ssl", "socket",
                                 "email", "hashlib") if m in sys.modules))
    """)
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True, cwd=tmp_path,
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
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False 1"


def test_import_loads_no_writer(tmp_path):
    # a library user who writes no file pays for neither the writer and figure
    # modules nor their kernels' tables, which are built on the first write
    src = str(Path(rotorkick.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        import rotorkick
        assert rotorkick.__file__.startswith({src!r}), rotorkick.__file__
        print("rotorkick.serialize" in sys.modules, "rotorkick.svgplot" in sys.modules)
        import rotorkick.serialize, rotorkick.svgplot
        print(rotorkick.serialize._tables.cache_info().currsize,
              rotorkick.svgplot._hex_pairs.cache_info().currsize)
    """)
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False", "0", "0"]


def test_one_function_calls_eigh():
    # every spectral result comes from one kernel: one call of an eigh, in
    # propagate._solve, and none anywhere else in the package, module level included
    callers = []
    for path in sorted(Path(rotorkick.__file__).parent.glob("*.py")):
        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "eigh":
                callers.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == ["propagate._solve"]
