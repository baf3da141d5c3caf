"""The library example of the README runs against the current API.

The ```python block is executed as written; it prints the control cost, the
final residual of the minimal-norm control and a spectral constant.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_reaches_zero(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    cost, residual, constant = (float(line) for line in capsys.readouterr().out.split())
    assert cost > 0.0
    assert 0.0 <= residual <= 1e-12
    assert 0.0 < constant <= 1.0
