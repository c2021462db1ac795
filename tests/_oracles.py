"""Independent oracles for the test suite.

Everything here is coded straight from the definitions and deliberately
avoids the library's algorithms: breadth-first reachability instead of the
DP table, sieve factor tables instead of constructive powerful-number
generation, sympy radicals instead of the scan sieves, full quadratic
scans instead of the radical-pruned one.
"""

import math
from math import gcd


def bfs_reachable(generators, bound):
    """Lattice points of [0, bound] reachable from 0 by adding generators,
    found with a breadth-first worklist."""
    d = len(bound)
    start = (0,) * d
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = tuple(a + b for a, b in zip(v, g))
                if w not in seen and all(x <= bx for x, bx in zip(w, bound)):
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def spf_table(limit):
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def factor_by_sieve(n, spf):
    out = {}
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


def min_exponent_table(limit):
    """Smallest prime exponent of every n in [0, limit]; units get +inf."""
    spf = spf_table(limit)
    mins = [math.inf] * (limit + 1)
    for n in range(2, limit + 1):
        mins[n] = min(factor_by_sieve(n, spf).values())
    return mins


def powerful_table(m, limit):
    """Boolean list: entry n says whether n is m-powerful (n >= 1)."""
    mins = min_exponent_table(limit)
    if m == math.inf:
        return [False] + [n == 1 for n in range(1, limit + 1)]
    return [False] + [n == 1 or mins[n] >= m for n in range(1, limit + 1)]


def brute_soft_points(n0, n1, n_inf, height_bound):
    """Exhaustive soft-point enumeration over the full candidate grid
    0 < |a| <= M, 0 < c <= M, deciding every pair from factor tables."""
    import numpy as np

    M = height_bound
    lim = 2 * M
    pa = np.array(powerful_table(n0, lim), dtype=bool)
    pb = np.array(powerful_table(n1, lim), dtype=bool)
    pc = np.array(powerful_table(n_inf, lim), dtype=bool)
    a_vals = np.concatenate([np.arange(-M, 0), np.arange(1, M + 1)])
    abs_a = np.abs(a_vals)
    out = []
    for c in range(1, M + 1):
        if not pc[c]:
            continue
        coprime = np.gcd(abs_a, c) == 1
        b = c - a_vals
        ok = coprime & (b != 0) & pa[abs_a] & pb[np.abs(b)]
        for a in a_vals[ok]:
            out.append((int(a), int(c)))
    return out


def sympy_radical(n):
    import sympy

    r = 1
    for p in sympy.factorint(n):
        r *= p
    return r


def brute_abc_set(max_c, num, den):
    """Set of coprime triples a <= b, a + b = c <= max_c with quality at
    least num/den, i.e. c^den >= rad(abc)^num exactly.  A wide float
    prefilter cuts the grid; survivors are adjudicated with sympy-computed
    radicals and integer powers."""
    import numpy as np

    spf = spf_table(max_c)
    rad = np.ones(max_c + 1, dtype=np.int64)
    for n in range(2, max_c + 1):
        p = spf[n]
        m = n // p
        rad[n] = rad[m] if m % p == 0 else rad[m] * p
    radf = rad.astype(float)
    exps = np.zeros(max_c + 1)
    exps[1:] = np.power(np.arange(1, max_c + 1, dtype=float), den / num)
    cut = exps * 1.01 + 10
    found = set()
    for a in range(1, max_c // 2 + 1):
        hi = max_c - a
        if hi < a:
            break
        rp = radf[a] * radf[a : hi + 1] * radf[2 * a : max_c + 1]
        for i in np.nonzero(rp <= cut[2 * a : max_c + 1])[0]:
            b = a + int(i)
            c = a + b
            if gcd(a, b) != 1:
                continue
            rr = sympy_radical(a) * sympy_radical(b) * sympy_radical(c)
            if c**den >= rr**num:
                found.add((a, b, c, rr))
    return found


def brute_vojta_trace(eps_prime, max_c):
    """Running-maximum trace (a, b, c, gap) of (1 - eps') log c - log
    rad(abc) over every coprime 0 < a < b, c = a + b <= max_c, visited in
    (c, a) order, with radicals from the factor tables."""
    spf = spf_table(max_c)
    rad = [0, 1] + [math.prod(factor_by_sieve(n, spf)) for n in range(2, max_c + 1)]
    trace = []
    best = -math.inf
    for c in range(3, max_c + 1):
        hc = (1 - eps_prime) * math.log(c)
        for a in range(1, (c + 1) // 2):
            if gcd(a, c) != 1:
                continue
            g = hc - math.log(rad[a] * rad[c - a] * rad[c])
            if g > best:
                best = g
                trace.append((a, c - a, c, g))
    return trace
