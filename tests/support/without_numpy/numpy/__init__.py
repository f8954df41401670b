"""A stand-in for numpy that cannot be imported.

Put ``tests/support/without_numpy`` first on ``PYTHONPATH`` and every
``import numpy`` fails as it does where numpy is not installed, so the
whole suite runs the relation without a frozen base:

    PYTHONPATH=tests/support/without_numpy:src python -m pytest -x -q -p no:cacheprovider
"""

raise ImportError("numpy is hidden by tests/support/without_numpy")
