"""The package's public surface, its runtime dependencies and its one eigensolve."""

import ast
import math
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


def test_cli_sweep_runs_on_one_thread(tmp_path):
    # a 2-D sweep whose first rung holds 900 points (22 500 matrix entries) runs
    # on the calling thread alone, and its default minima ceiling does not load
    # numpy.ma, which np.percentile brings in through np.unique
    src = str(Path(rotorkick.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import sys, threading
        sys.path.insert(0, {src!r})
        import rotorkick.cli
        assert rotorkick.__file__.startswith({src!r}), rotorkick.__file__
        code = rotorkick.cli.main(["sweep", "--P-min", "4.1", "--P-max", "5.55", "--P-step",
                                   "0.05", "--sigma-min", "5.7", "--sigma-max", "7.15",
                                   "--sigma-step", "0.05", "--out", "out"])
        print(code, threading.active_count(),
              sorted(m for m in ("concurrent.futures", "numpy.ma") if m in sys.modules))
    """)
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 1 []"
    assert "900 points (0 failed)" in out and " 0 surface minima" not in out


def test_import_loads_no_writer(tmp_path):
    # a library user who writes no file pays for neither the writer and figure
    # modules nor their kernels' tables, which are built on the first write;
    # the axis rounding loads the text module but builds none of its tables
    src = str(Path(rotorkick.__file__).resolve().parent.parent)
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {src!r})
        import rotorkick
        assert rotorkick.__file__.startswith({src!r}), rotorkick.__file__
        print("rotorkick.serialize" in sys.modules, "rotorkick.svgplot" in sys.modules,
              rotorkick._text._tables.cache_info().currsize)
        import rotorkick.serialize, rotorkick.svgplot
        print(rotorkick._text._tables.cache_info().currsize,
              rotorkick.svgplot._hex_pairs.cache_info().currsize)
    """)
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True, cwd=tmp_path,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False", "0", "0", "0"]


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


def test_no_module_starts_threads():
    # the eigensolves run on the calling thread: no module of the package imports
    # threading or concurrent.futures, or registers a fork handler for their state
    found = []
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) and node.module else [])
            found += [(module, name) for name in names
                      if name.split(".")[0] in ("threading", "concurrent")]
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("register_at_fork"):
                found.append((module, ast.unparse(node.func)))
    assert found == []


def _package_trees():
    for path in sorted(Path(rotorkick.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _constant(node):
    """The value of an expression of number literals and arithmetic, else None."""
    if not all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
               for n in ast.walk(node)):
        return None
    try:
        return eval(compile(ast.Expression(node), "<constant>", "eval"), {"__builtins__": {}})
    except (ArithmeticError, TypeError):
        return None


def test_one_module_holds_the_decimal_text_arithmetic():
    # Dekker's splitter 2^27 + 1 and a tie band (a power of two below 2^-20)
    # are written in rotorkick._text only, so every decimal renderer shares one
    # product and one tie rule
    found = set()
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Constant, ast.BinOp)):
                value = _constant(node)
                if isinstance(value, (int, float)) and not isinstance(value, bool) and (
                        value == 134217729 or 0 < value < 2.0 ** -20
                        and math.frexp(value)[0] == 0.5):
                    found.add((module, float(value)))
    assert found == {("_text", 134217729.0), ("_text", 2.0 ** -30)}


def test_no_module_takes_private_names_from_the_sweep():
    # text kernels live in rotorkick._text; what other modules import from
    # the physics sweep module is its public surface
    taken = [(module, alias.name) for module, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "sweep" and node.level == 1
             for alias in node.names if alias.name.startswith("_")]
    assert taken == []


def _uses_of_j0(node):
    """(function, source) of each comparison and subscript under node that reads j0."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, (ast.Compare, ast.Subscript)) and any(
                isinstance(n, ast.Name) and n.id == "j0" for n in ast.walk(node)):
            found.append((where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(node, None)
    return found


def test_one_table_holds_the_two_level_pairs():
    # both pairs come from one table, looked up in one place: analytic.py neither
    # compares j0 with an integer nor indexes by it elsewhere, and its only integer
    # keys are the table's, so no second copy of a pair's constants creeps back;
    # compare_drops_to_analytic leaves J0 to zero_loci's refusal, and the CLI takes
    # the J0 that it offers and compares from the table, not from a literal of its own
    trees = dict(_package_trees())
    assert _uses_of_j0(trees["analytic"]) == [("_pair", "_PAIRS[j0]")]
    tables = [ast.unparse(node) for node in ast.walk(trees["analytic"])
              if isinstance(node, ast.Dict)]
    assert tables == ["{0: (1, 3, SQRT3), 1: (2, 15, SQRT15)}"]
    compare, = (node for node in ast.walk(trees["sweep"]) if isinstance(node, ast.FunctionDef)
                and node.name == "compare_drops_to_analytic")
    assert _uses_of_j0(compare) == []
    assert [ast.unparse(node) for node in ast.walk(compare) if isinstance(node, ast.Call)
            and "j0" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}] == [
        "zero_loci(j0, strength, n_max)"]
    literals = [ast.unparse(node) for node in ast.walk(trees["cli"])
                if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts
                and all(isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts)]
    assert literals == []
    taken = [ast.unparse(node) for node in ast.walk(trees["cli"])
             if isinstance(node, (ast.Compare, ast.keyword)) and "_PAIRS" in ast.unparse(node)]
    assert taken == ["choices=sorted(_PAIRS)", "grid.j0 in _PAIRS"]
