import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["sol"].converged
    assert namespace["logits"].shape == (2,)
