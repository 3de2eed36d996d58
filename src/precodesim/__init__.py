"""Link-level multi-user MIMO downlink precoding simulator.

Builds per-user channels, decomposes them into spatial layers,
constructs linear precoders (matched, pseudoinverse, ridge variants
and a searched per-layer ridge), detects with per-user MMSE receivers
and reports spectral-efficiency metrics over multi-seed sweeps.  The
submodules are the API; the package root binds only ``__version__``.
"""

__version__ = "0.1.0"
