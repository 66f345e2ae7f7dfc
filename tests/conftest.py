"""Test modules import numpy before promptblend, so import promptblend
first: it pins BLAS to one thread unless the environment says otherwise,
which only takes effect before numpy's first import. The import also sets
the heap policy, so every test runs the program that the command runs."""

import promptblend  # noqa: F401
