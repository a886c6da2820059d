"""The README's library quick start runs and prints what its comments claim."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    energy, orient = (float(line) for line in capsys.readouterr().out.split())
    assert energy < 1e-4     # "~1e-5: the drop"
    assert abs(orient) < 1e-4  # "~0: orientation vanishes too"
