"""The geometry kernel instance behind the batched predicates.

There is one kernel, :class:`~repro.geometry.kernel.NumpyKernel`.
:func:`active_backend` returns its process-wide instance, so tools that
wrap the kernel's methods (a profiler counting ``points_in_polygon`` calls,
say) find the class to patch.
"""

from __future__ import annotations

from .kernel import KERNEL, NumpyKernel


def active_backend() -> NumpyKernel:
    """The kernel instance every batched geometry predicate runs through."""
    return KERNEL


__all__ = ["active_backend"]
