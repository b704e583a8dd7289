"""A desk-scale structured-pruning laboratory.

A small numpy model runtime (conv/linear/batch-norm graphs with reverse-mode
gradients), per-channel importance estimation from forward/backward signals,
global channel ranking and pruning by masking or physical compaction, and an
experiment harness that sweeps pruning fractions against test accuracy.
"""

__version__ = "0.1.0"

from . import checkpoint, data, errors, harness, importance, nn, pruning, tensor  # noqa: F401
