"""Exact lattice/monodromy arithmetic and numerical fibration checks for
the T_{p,q,r} singularity family.

The layers are the submodules cuspdual, k3glue, milnorfiber, numcheck,
quadlattice and sl2z; import the ones you use (only numcheck needs numpy).
The one function defined here is ``triple_excess``, the sign test of a
triple shared by sl2z, quadlattice and numcheck; sl2z re-exports it, so
quadlattice and numcheck use it without loading sl2z.
"""

__version__ = "0.1.0"


def triple_excess(p: int, q: int, r: int) -> int:
    """pqr - pq - qr - rp, which equals trace A_{p,q,r} - 2.

    It has the sign of 1 - 1/p - 1/q - 1/r: positive exactly for a cusp
    triple and zero exactly for a parabolic one."""
    return p * q * r - p * q - q * r - r * p
