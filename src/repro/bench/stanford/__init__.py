"""The Stanford benchmark suite, written in TL (paper section 6 workload)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__, submod_attrs={".programs": ["PROGRAMS", "StanfordProgram"]}
)
