"""Independent high-precision values of the construction, from its closed
forms and mpmath alone (nothing here imports denjoy_twist).

a_C normalizes the gap lengths ell_k = a_C f(|k|), with
f(k) = 1/((k+C) log(k+C)^(1+delta)), so that their doubly infinite sum is 1:
a_C = 1 / (f(0) + 2 sum_{k>=1} f(k)).
"""

import mpmath

DPS = 40
# terms summed exactly: |k| <= _HEAD
_HEAD = 1000


def a_C(delta, C):
    """a_C at DPS digits: the terms at |k| <= 1000 summed exactly, the rest by
    Euler-Maclaurin at u = 1001 + C through the B_8 correction. The first
    omitted correction, B_10/10! f^(9)(u), is below 1e-30 of the sum for the
    tested delta and C >= 10 (f^(n)(u) ~ n! f(u) / u^n)."""
    with mpmath.workdps(DPS + 10):
        delta, C = mpmath.mpf(delta), mpmath.mpf(C)

        def f(u):   # the term at k = u - C
            return 1 / (u * mpmath.log(u) ** (1 + delta))

        head = f(C) + 2 * mpmath.fsum(f(k + C) for k in range(1, _HEAD + 1))
        u = _HEAD + 1 + C
        tail = 1 / (delta * mpmath.log(u) ** delta) + f(u) / 2
        for n in (2, 4, 6, 8):
            tail -= mpmath.bernoulli(n) / mpmath.factorial(n) * mpmath.diff(f, u, n - 1)
        return 1 / (head + 2 * tail)
