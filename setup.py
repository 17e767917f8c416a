"""Legacy setup shim.

The reproduction environment is offline and lacks the ``wheel``
package, so ``pip install -e .`` must use the legacy ``setup.py
develop`` path instead of PEP 517 build isolation.  There is no
``pyproject.toml``: this file is the package's only metadata, and the
version is read from ``src/repro/__init__.py`` so the two cannot drift.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
