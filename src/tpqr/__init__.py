"""Exact lattice/monodromy arithmetic and numerical fibration checks for
the T_{p,q,r} singularity family.

The layers are the submodules cuspdual, k3glue, milnorfiber, numcheck,
quadlattice and sl2z; import the ones you use (only numcheck needs numpy).
"""

__version__ = "0.1.0"
