"""The package's public surface: ``__all__`` and the README library example."""

import pathlib
import re

import antkinetics

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in antkinetics.__all__ if not hasattr(antkinetics, name)]
    assert missing == []
    namespace = {}
    exec("from antkinetics import *", namespace)
    assert set(antkinetics.__all__) <= set(namespace)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["root"].mu0 > 0.0
