"""The README's library example runs as written, and its configuration
block is what config_to_json writes for default_config()."""

import json
import re
from pathlib import Path

from zndevans.evans import EvansResult
from zndevans.stability import WindingReport
from zndevans.znd import config_to_json, default_config

README = Path(__file__).resolve().parents[1] / "README.md"


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
