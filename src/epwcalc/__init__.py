"""Exact-arithmetic engine for the linear algebra of EPW sextics and a
formal intersection-theory verifier for the associated 4-fold."""

from .scalars import GF, QQ

__version__ = "0.1.0"

# the F_p kernel in use; there is one, the pure-Python `fpkernel`
BACKEND = "pure"
__all__ = ["BACKEND", "GF", "QQ", "__version__"]
