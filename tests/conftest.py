"""Test modules import numpy before promptblend, so import promptblend
first: it pins BLAS to one thread unless the environment says otherwise,
which only takes effect before numpy's first import."""

import promptblend  # noqa: F401
