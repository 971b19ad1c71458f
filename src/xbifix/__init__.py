"""Cross-bifix-free code toolkit: construction, verification, counting,
exact optima and synchronization statistics."""

__version__ = "0.1.0"

from .words import (  # noqa: F401
    CapacityError,
    Code,
    CodeFormatError,
    Word,
    cross_pair_ok,
    is_nonexpandable,
    read_code,
    verify_code,
    write_code,
)
from .construction import (  # noqa: F401
    SizeRecord,
    best_size,
    generate_direct,
    size_formula,
)
from .fibonacci import fib, fib_closed_form, find_alpha, kq_threshold  # noqa: F401
from .bounds import bilotta_size, upper_bound, variance_formula  # noqa: F401
from .clique import build_graph, max_clique  # noqa: F401
from .sim import SimConfig, SyncStats, run_sim  # noqa: F401
