"""Linear solutions of generalized combination networks via covering
subspace codes: finite-field linear algebra, code construction and
verification, brute-force search, and bound evaluation."""

# The package exports only what code outside a submodule reads:
# perfbench/run.py reports backend_name(), and cli prints __version__.
from .backend import backend_name

__version__ = "0.1.0"
