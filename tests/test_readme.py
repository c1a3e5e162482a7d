"""README drift: the library table, the exit-code table, the package
namespace and the Python session match the code."""

import builtins
import importlib
import io
import re
import types
from contextlib import redirect_stdout
from pathlib import Path

from misbench import bounds, cli, extremal, graphs, misenum, pipeline

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    """The README text from the heading ``## title`` to the next level-2 heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def test_library_table_names_resolve():
    rows = re.findall(r"^\| `(misbench\.\w+)` \| (.*) \|$", section("Library overview"), re.MULTILINE)
    assert len(rows) >= 9
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            if not hasattr(builtins, name) and not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_exit_code_table_matches_the_code():
    table = section("Command-line tour").split("\n### Exit codes\n", 1)[1]
    rows = dict(re.findall(r"^\| (\d+) \| (.*) \|$", table, re.MULTILINE))
    assert sorted(map(int, rows)) == [0, 1, 2, 3, cli.EXIT_CLOSED_STDOUT]
    guards = rows["3"]
    cited = {
        "MAX_VERTICES": int(re.search(r"\border above (\d+)", guards)[1]),
        "GENERATION_CAP": int(re.search(r"`search` above order (\d+)", guards)[1]),
        "CENSUS_CELL_CAP": int(re.search(r"component above (\d+) cells", guards)[1]),
        "MIS_OF_SIZE_CAP": 2 ** int(re.search(r"more than 2\^(\d+) pipeline root-size sets", guards)[1]),
        "CURVE_POINTS_CAP": int(re.search(r"`curves` above ([\d,]+) points", guards)[1].replace(",", "")),
        "TWO_SUM_N_CAP": 2 ** int(re.search(r"`solve --two-sum-eta` witness search past order 2\^(\d+)", guards)[1]),
    }
    assert cited == {
        "MAX_VERTICES": graphs.MAX_VERTICES,
        "GENERATION_CAP": extremal.GENERATION_CAP,
        "CENSUS_CELL_CAP": pipeline.CENSUS_CELL_CAP,
        "MIS_OF_SIZE_CAP": misenum.MIS_OF_SIZE_CAP,
        "CURVE_POINTS_CAP": bounds.CURVE_POINTS_CAP,
        "TWO_SUM_N_CAP": bounds.TWO_SUM_N_CAP,
    }
    assert cited == {
        "MAX_VERTICES": 64,
        "GENERATION_CAP": 8,
        "CENSUS_CELL_CAP": 11,
        "MIS_OF_SIZE_CAP": 2**17,
        "CURVE_POINTS_CAP": 100_000,
        "TWO_SUM_N_CAP": 2**17,
    }


def test_package_namespace_reexports_nothing():
    # Every name is imported from its module; the package's own namespace
    # holds its submodules and nothing public besides.
    package = importlib.import_module("misbench")
    reexported = [
        name
        for name, obj in vars(package).items()
        if not name.startswith("_")
        and not (isinstance(obj, types.ModuleType) and obj.__name__ == f"misbench.{name}")
    ]
    assert reexported == []


def test_python_session_prints_its_comments():
    (code,) = re.findall(r"```python\n(.*?)```", section("Library overview"), re.DOTALL)
    expected = [
        line.split("# ", 1)[1]
        for line in code.splitlines()
        if line.startswith("print(") and "# " in line
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
