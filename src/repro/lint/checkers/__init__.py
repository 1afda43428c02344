"""Built-in checkers; importing this package registers them all."""

from . import (  # noqa: F401  (import-for-side-effect registration)
    coroutines,
    determinism,
    phases,
    protocol,
)

__all__ = [
    "coroutines",
    "determinism",
    "phases",
    "protocol",
]
