"""Exact lattice/monodromy arithmetic and numerical fibration checks for
the T_{p,q,r} singularity family.

The layers are the submodules cuspdual, k3glue, milnorfiber, numcheck,
quadlattice and sl2z; import the ones you use (only numcheck needs numpy).
Five things are defined here, because several layers share them and none
should load another for them:

- ``triple_excess``, the sign test of a triple: positive for a cusp,
  zero for a parabolic triple.
- ``_check_ints``, the one integer rule: a count, index, entry or
  exponent is an ``int``, and ``bool`` is not one.  Every layer calls it
  where such a value enters.
- ``_check_int_rows``, the same rule for the entries of a matrix, whose
  message names the first bad entry and its position; ``GramLattice``
  and ``milnorfiber.char_poly`` call it.
- ``_check_triple``, the one rule for an index triple: three ints, each
  >= 2, and where the caller asks, a cusp or a cusp-or-parabolic triple.
  It always raises the caller's own error for the last two.
- ``value_class``, the decorator behind every report and value type of
  the layers.  It builds the methods of a frozen value class from
  closures, so a one-shot request neither imports ``dataclasses`` (and
  with it ``inspect``) nor compiles generated code for each class.
  Every value class is built by its one generic constructor and checks
  its fields in its own ``__post_init__``; quadlattice's builders store
  the lattices they have checked from their own inputs through the
  private ``_stored``.
"""

from itertools import chain
from operator import attrgetter

__version__ = "0.1.0"


def triple_excess(p: int, q: int, r: int) -> int:
    """pqr - pq - qr - rp, which equals trace A_{p,q,r} - 2.

    It has the sign of 1 - 1/p - 1/q - 1/r: positive exactly for a cusp
    triple and zero exactly for a parabolic one."""
    return p * q * r - p * q - q * r - r * p


def _check_ints(what: str, values, shown=None) -> None:
    """TypeError unless every one of ``values`` is an int; bool is not.
    The message shows ``shown`` if given, else the first bad value."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"integer {what} required, got {v if shown is None else shown!r}")


def _check_int_rows(what: str, rows) -> None:
    """TypeError unless every entry of ``rows`` is an int; bool is not.
    The message names the first bad entry, row-major, and its (i,j)."""
    if set(map(type, chain.from_iterable(rows))) - {int}:  # bool is not an entry
        i, j, x = next(
            (i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if type(x) is not int
        )
        raise TypeError(f"integer {what} required, got {x!r} at ({i},{j})")


def _check_triple(given: tuple, error, least_excess=None) -> None:
    """TypeError unless ``given`` is three entries, each an int; then
    ``error`` unless each is >= 2 and, with ``least_excess`` 1 or 0, unless
    ``triple_excess`` reaches it: a cusp, or a cusp or parabolic triple."""
    if len(given) != 3:
        raise TypeError(f"integer triple required, got {given!r}")
    _check_ints("triple", given, given)
    name = "({},{},{})".format(*given)
    if min(given) < 2:
        raise error(f"indices must be >= 2, got {name}")
    if least_excess is not None and triple_excess(*given) < least_excess:
        kind, bound = ("cusp", "<") if least_excess else ("cusp or parabolic", "<=")
        raise error(f"{name} is not a {kind} triple (needs 1/p+1/q+1/r {bound} 1)")


def value_class(cls):
    """Make ``cls`` a frozen value class over its annotated fields.

    As with a frozen dataclass: construction by position or keyword, with
    a field's class attribute as its default, then ``__post_init__`` if
    the class has one; ``==`` only between instances of one class; a hash
    and a ``Name(a=1, b=2)`` repr over the fields; AttributeError on any
    assignment or deletion.  The fields live in the instance ``__dict__``,
    so ``vars`` lists them in declaration order and
    ``functools.cached_property`` works.

    A method the class defines itself is kept, but no class defines
    ``__init__``: each is built by the generic constructor below and
    checks its fields in ``__post_init__``."""
    names = tuple(cls.__annotations__)
    field_set = frozenset(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def bind(qualname, args, kwargs):
        """Every field's value, in declaration order."""
        given = dict(zip(names, args), **kwargs)
        # too many arguments, a keyword naming a positional one, or an unknown keyword
        if len(given) != len(args) + len(kwargs) or not given.keys() <= field_set:
            raise TypeError(
                f"{qualname}() takes the fields {', '.join(names)}; "
                f"got {len(args)} positional and the keywords {sorted(kwargs)}"
            )
        try:
            return [given[n] if n in given else defaults[n] for n in names]
        except KeyError as missing:
            raise TypeError(f"{qualname}() missing {missing}") from None

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(type(self).__qualname__, args, kwargs)
        for n, v in zip(names, args):
            set_field(self, n, v)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def frozen(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": frozen, "__delattr__": frozen}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
