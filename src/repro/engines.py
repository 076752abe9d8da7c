"""Engine selection shared by the four language backends.

Every execution entry point takes one selector, ``engine=``, naming a
tier from its module's ``ENGINES`` tuple; ``None`` defers to the
module's ``DEFAULT_ENGINE`` (read at call time, so benchmarks and tests
can monkeypatch it module-wide).  Clight, RTL and Mach have two tiers —
``"legacy"`` (the original step loop, kept as the differential oracle)
and ``"decoded"`` (the pre-decoded closure interpreter); ASMsz adds
``"codegen"`` (per-program generated Python).
"""

from __future__ import annotations

from typing import Optional


def resolve(engine: Optional[str], default: str,
            choices: tuple[str, ...]) -> str:
    """The one resolution rule every backend uses."""
    if engine is None:
        return default
    if engine not in choices:
        raise ValueError(
            f"unknown engine {engine!r} (expected one of {choices})")
    return engine
