"""Exact rational numbers.

Everything in this package that is "a rational" is an instance of ``RAT``,
which is ``fractions.Fraction``.  Field coordinates use plain ``int`` wherever
they are integral; a ``RAT`` is made only where a division needs one.
"""

from fractions import Fraction as RAT

# the benchmark harness records this flag; the package has no gmpy2 path
HAVE_GMPY2 = False
