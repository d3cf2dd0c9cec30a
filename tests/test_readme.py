import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    # every ```python block of the README, in order, in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", _README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
