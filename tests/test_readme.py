import os
import re
import shlex

from eqspike import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["sol"].converged
    assert namespace["logits"].shape == (2,)


def test_readme_cli_lines_parse():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("eqspike ")]
    assert len(lines) >= 7
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
