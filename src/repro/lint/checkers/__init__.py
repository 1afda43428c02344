"""Built-in checkers; importing this package registers them all."""

from . import (  # noqa: F401  (import-for-side-effect registration)
    coroutines,
    determinism,
    obsconf,
    phases,
    protocol,
)

__all__ = [
    "coroutines",
    "determinism",
    "obsconf",
    "phases",
    "protocol",
]
