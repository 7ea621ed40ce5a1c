"""Machine-speed probe: time a fixed bracket-like loop and print seconds.

usage: python3 bench/calibrate.py

The loop multiplies every term of one sparse polynomial by every term of
another and merges the products into a dict: tuple keys, exact Fraction
coefficients and a growing result, the same kind of work the birkhoff
bracket does.  It imports nothing from birkhoff, so no change to the
engine changes its cost.  ``run.py`` runs it around every job and scales
the job's times by how fast the machine ran it just then (see NOTES.md).
"""

import random
import time
from fractions import Fraction

TERMS = 240


def operand(rng: random.Random, terms: int) -> dict:
    out: dict = {}
    while len(out) < terms:
        key = tuple(sorted(rng.randrange(16) for _ in range(4)))
        out[key] = Fraction(rng.randrange(1, 60), rng.randrange(1, 60))
    return out


def product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka[1:] + kb[1:]))
            out[key] = out.get(key, 0) + ca * cb
    return out


if __name__ == "__main__":
    rng = random.Random(0)
    a, b = operand(rng, TERMS), operand(rng, TERMS)
    start = time.perf_counter()
    product(a, b)
    print(time.perf_counter() - start)
