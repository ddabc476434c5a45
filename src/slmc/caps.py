"""Enumeration caps.

Combinatorial enumerations (shuffle sums, relation scans, wedge products) are
bounded by hard caps; exceeding a cap raises ResourceCapError rather than
truncating.  Defaults suit desk-scale examples and can be overridden through
the SLMC_CAPS environment variable, e.g.

    SLMC_CAPS="word=16,arity=10,poly=8"
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError

_DEFAULTS = {"word": 12, "arity": 8, "poly": 12}


@dataclass(frozen=True)
class Caps:
    word: int = 12      # maximum symmetric word length / shuffle size
    arity: int = 8      # maximum bracket arity scanned by relation checks
    poly: int = 12      # maximum polynomial degree of a form monomial

    # The poly cap bounds every stored monomial, including curvature
    # residuals of solver ansaetze.  A quadratic bracket doubles the ansatz
    # degree, so the default leaves room for degree-6 ansaetze.


@lru_cache(maxsize=16)
def _parse_caps(text: str) -> Caps:
    # cached by the text, so a changed SLMC_CAPS takes effect at once; a
    # malformed value raises, which lru_cache never caches
    values = dict(_DEFAULTS)
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"SLMC_CAPS entry {chunk!r} is not of the form key=value")
        key, _, raw = chunk.partition("=")
        key = key.strip()
        if key not in values:
            raise InputError(f"SLMC_CAPS has unknown cap {key!r} (known: word, arity, poly)")
        try:
            value = int(raw)
        except ValueError:
            raise InputError(f"SLMC_CAPS value for {key!r} is not an integer: {raw!r}") from None
        if value < 1:
            raise InputError(f"SLMC_CAPS value for {key!r} must be positive")
        values[key] = value
    return Caps(**values)


def get_caps() -> Caps:
    """Return the active caps, honouring SLMC_CAPS if set."""
    return _parse_caps(os.environ.get("SLMC_CAPS") or "")
