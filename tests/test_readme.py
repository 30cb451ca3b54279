"""The README's library example runs as written."""

import re
from pathlib import Path

from zndevans.evans import EvansResult
from zndevans.stability import WindingReport

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert isinstance(namespace["result"], EvansResult)
    assert namespace["result"].lam == 1 + 1j
    assert isinstance(namespace["report"], WindingReport)
