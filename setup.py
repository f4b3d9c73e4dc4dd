"""Packaging metadata.

Kept in setup.py (rather than a [project] table) so legacy editable
installs work in offline environments that lack the `wheel` package
(PEP 517 editable builds need bdist_wheel); pyproject.toml carries the
build-system pin and tool configuration only.

The "dev" extra mirrors requirements-dev.txt, which CI installs and
caches against.  The version lives only in src/repro/__init__.py; it is
read from there as text, so building never imports the package.
"""
import pathlib
import re

from setuptools import find_packages, setup

_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro-omnifair",
    version=VERSION,
    description=(
        "Declarative model-agnostic group fairness (OmniFair, SIGMOD'21) "
        "with compiled constraint kernels and a batched lambda-search engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "dev": [
            "pytest>=8",
            "pytest-benchmark>=4",
            "hypothesis>=6",
            "ruff>=0.4",
        ],
    },
)
