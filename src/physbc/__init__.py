"""Data-driven barrier certificates for discrete-time systems.

The package certifies safety of a system from sampled transitions: fit a
polynomial barrier between the initial and unsafe regions by linear
programming over the samples, bound the mismatch introduced by finite
sampling with a Lipschitz argument, and report either a deterministic or a
high-confidence probabilistic guarantee.  A physics-consistency filter can
drop samples that disagree with a nominal model before fitting, which
shrinks the data while keeping the guarantee sound with respect to the
filtered set.

The package exports only ``__version__``; import names from the submodules,
e.g. ``from physbc.pipeline import run``.
"""

__version__ = "0.1.0"
