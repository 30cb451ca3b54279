"""The README's library example runs as written, its configuration block
is what config_to_json writes for default_config(), and its dependency line
names every test extra of pyproject.toml."""

import json
import re
from pathlib import Path

from zndevans.evans import EvansResult
from zndevans.stability import WindingReport
from zndevans.znd import config_to_json, default_config

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert isinstance(namespace["result"], EvansResult)
    assert namespace["result"].lam == 1 + 1j
    assert isinstance(namespace["report"], WindingReport)


def test_config_block_is_the_default_config():
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    assert json.loads(block) == json.loads(config_to_json(default_config()))


def test_dependency_line_names_every_test_extra():
    # a regex, not tomllib, which Python 3.10 lacks
    section = re.search(r"^\[project\.optional-dependencies\]$(.*?)(?=^\[|\Z)",
                        PYPROJECT.read_text(), re.M | re.S).group(1)
    test_list = re.search(r"^test\s*=\s*\[(.*?)\]", section, re.M | re.S).group(1)
    extras = re.findall(r'"([A-Za-z0-9_.-]+)', test_list)  # names up to any version bound
    line = re.search(r"^Dependencies:.*?(?=\n\n)", README.read_text(), re.M | re.S).group(0)
    assert extras
    assert [name for name in extras if f"`{name}`" not in line] == []
