"""Package metadata for ``pip install -e . --no-build-isolation``.

There is no pyproject.toml: this file is the whole build
configuration.  The importable package is ``repro`` under ``src/``;
its version is read from ``src/repro/__init__.py`` so it has one
source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("BP-NTT: a cycle-accurate model of in-SRAM number theoretic "
                 "transform with bit-parallel modular multiplication"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
