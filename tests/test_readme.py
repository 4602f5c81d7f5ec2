"""The README's Python example runs as written."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_readme_example_runs():
    # the >>> lines of every ```python block, without the fences, which
    # doctest would read as expected output
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0)
    assert len(test.examples) >= 8
    failed, attempted = doctest.DocTestRunner().run(test)
    assert (failed, attempted) == (0, len(test.examples))
