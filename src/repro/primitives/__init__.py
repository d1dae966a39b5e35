"""Primitive procedures for TML (paper section 2.3, Fig. 2).

The intermediate language itself knows nothing about arithmetic, arrays or
queries; all of it is factored into primitives described by a
:class:`~repro.primitives.registry.PrimitiveRegistry`.  The default registry
covers the full Fig. 2 set for compiling an imperative, algorithmically
complete language; the query subsystem extends it with relational primitives
at registration time — the paper's adaptability story.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    submod_attrs={
        ".effects": ["EffectClass", "may_commute"],
        ".registry": ["Attributes", "Primitive", "PrimitiveRegistry", "Signature", "default_registry"],
    },
)
