"""Package metadata for the ExaDigiT reproduction."""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """``repro.__version__``, read from the source without importing it."""
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    match = re.search(
        r'^__version__ = "([^"]+)"', init.read_text(encoding="utf-8"), re.M
    )
    if match is None:
        raise RuntimeError(f"no __version__ in {init}")
    return match.group(1)


setup(
    name="exadigit-repro",
    version=read_version(),
    description=(
        "Digital twin for liquid-cooled supercomputers: a Python "
        "reproduction of the ExaDigiT framework (SC 2024)"
    ),
    long_description=(
        "A complete Python reimplementation of ExaDigiT (Brewer et al., "
        "SC 2024): RAPS resource/power simulation with conversion-loss "
        "modeling, a transient cooling-plant model behind an FMI-like "
        "interface, a declarative scenario API with parallel experiment "
        "suites, persisted sweep campaigns, a surrogate-backed "
        "multi-fidelity fast path, a twin-as-a-service asyncio job "
        "server with streaming transports, JSON system specifications, "
        "and terminal visual analytics."
    ),
    long_description_content_type="text/plain",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    install_requires=["numpy"],
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.config": ["systems/*.json"]},
    include_package_data=True,
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Physics",
        "Topic :: System :: Distributed Computing",
    ],
)
