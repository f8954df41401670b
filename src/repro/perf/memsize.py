"""Deep resident-size measurement for index structures.

``sys.getsizeof`` is *shallow*: a dict of tuples reports the hash
table alone — not the tuples, not their boxed ints — which understated
the Fig. 14 index-size benchmark by an order of magnitude.
:func:`deep_sizeof` walks the object graph instead, counting every
reachable object exactly once (a shared object is charged to whichever
root reaches it first).

numpy arrays are handled by ownership: an owning array counts header
plus data, a view counts its header and defers the data to its base,
which is then charged once if reachable.

Traversal covers dicts, sequences, sets, and arbitrary objects via
``__dict__``/``__slots__``.  Modules, classes, functions and other
code objects are skipped: reaching the interpreter's module graph
through a stray reference would dwarf any index measurement.
"""

from __future__ import annotations

import sys
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType
from typing import Iterable, Optional

from repro.perf.sweep import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as _np

#: never traversed (and never counted): interpreter plumbing that a
#: stray attribute reference would otherwise drag into the measurement
_SKIP_TYPES = (
    ModuleType,
    FunctionType,
    BuiltinFunctionType,
    MethodType,
    type,
)

_ITERABLE_TYPES = (list, tuple, set, frozenset)


def _slot_values(obj) -> Iterable[object]:
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name in ("__dict__", "__weakref__"):
                continue
            try:
                yield getattr(obj, name)
            except AttributeError:
                continue


def deep_sizeof(*roots, exclude: Optional[Iterable[object]] = None) -> int:
    """Total resident bytes reachable from ``roots``, each object once.

    ``exclude`` seeds the visited set: pass shared infrastructure (a
    metrics registry) to charge the roots
    only for what they own beyond it.
    """
    seen = set()
    if exclude is not None:
        for obj in exclude:
            seen.add(id(obj))
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        identity = id(obj)
        if identity in seen:
            continue
        seen.add(identity)
        if isinstance(obj, _SKIP_TYPES):
            continue
        if HAVE_NUMPY and isinstance(obj, _np.ndarray):
            # numpy's __sizeof__ already charges the data buffer only
            # when the array owns it; a view defers to its base below.
            total += sys.getsizeof(obj)
            base = obj.base
            if base is not None:
                stack.append(base)
            continue
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic C objects
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, _ITERABLE_TYPES):
            stack.extend(obj)
        elif not isinstance(
            obj, (str, bytes, bytearray, int, float, complex, bool)
        ):
            instance_dict = getattr(obj, "__dict__", None)
            if instance_dict is not None:
                stack.append(instance_dict)
            stack.extend(_slot_values(obj))
    return total
