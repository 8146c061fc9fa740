"""Legacy setup shim.

The benchmark environment has no ``wheel`` package, so PEP 660 editable
installs fail; ``pip install -e . --no-use-pep517 --no-build-isolation``
falls back to ``setup.py develop`` through this shim.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],  # the FFT kernels transform with out=
)
