"""Kept for the benchmark harness, which records this flag; rationals are
``fractions.Fraction`` throughout, with no gmpy2 path."""

HAVE_GMPY2 = False
