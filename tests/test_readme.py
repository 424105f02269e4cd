"""The README's library example runs and gives the values it documents."""

import pathlib
import re
from fractions import Fraction

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_gives_its_documented_values():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    solution, report = namespace["solution"], namespace["report"]
    assert solution.status == "optimal"
    assert solution.x == (0, 1)
    assert repr(solution.objective) == repr(Fraction(-1, 1))
    assert solution.oracle_calls == solution.points_enumerated == 13
    assert report.rho == 2
    assert report.bound.exact == 131072
    assert report.backend_calls == report.certified_solves == 5
    assert report.fallback_pivots == 0
