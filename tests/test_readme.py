import importlib
import pkgutil
import re
from pathlib import Path

import mkdmts

README = Path(__file__).resolve().parents[1] / "README.md"


def _named_in_readme() -> list[str]:
    """Every ``module.name`` of the package that a backticked span of README.md holds, in order.

    A name not preceded by a word character or a dot counts, so ``kernels.pairwise_dtw(dataset)``
    names ``kernels.pairwise_dtw``; a file name such as ``cli.py`` does not count.
    """
    modules = "|".join(m.name for m in pkgutil.iter_modules(mkdmts.__path__))
    pattern = re.compile(rf"(?<![\w.])(?:{modules})\.(?!py\b)[A-Za-z_]\w*")
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    return [name for span in spans for name in pattern.findall(span)]


def test_readme_names_only_what_exists():
    named = _named_in_readme()
    assert "mkd.code_solver" in named  # the pattern finds the names it is meant to check
    missing = []
    for dotted in named:
        module, name = dotted.split(".")
        if not hasattr(importlib.import_module(f"mkdmts.{module}"), name):
            missing.append(dotted)
    assert not missing, f"README.md names what the package does not hold: {missing}"
