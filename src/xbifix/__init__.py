"""Cross-bifix-free code toolkit: construction, verification, counting,
exact optima and synchronization statistics."""

__version__ = "0.1.0"

from . import bounds, clique, construction, fibonacci, sim, words  # noqa: F401
