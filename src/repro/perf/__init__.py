"""The performance layer: the frozen postings behind the lookup sweep.

:mod:`repro.perf.sweep` freezes a forest's postings into one CSR-style
array form (:class:`CompactPostings`) and sweeps a whole query with a
few vector operations (numpy); its reference is the dict sweep
:func:`repro.perf.sweep.sweep_dict` of the relation's overlay, and
both produce identical results (asserted in ``tests/test_perf.py``).
``HAVE_NUMPY`` says whether numpy is importable; without it nothing
is frozen and the overlay, which then holds every posting, is swept.
"""

from repro.perf.sweep import HAVE_NUMPY, CompactPostings

__all__ = ["CompactPostings", "HAVE_NUMPY"]
