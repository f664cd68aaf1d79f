"""Fixed reference work that measures the host's speed, not the program's.

Usage: python3 reference.py

Prints the seconds that a fixed pure-Python computation took: exact
Gaussian elimination over the rationals on a seeded sparse matrix, then
dict and tuple churn.  It imports nothing from ydweyl, so no change to the
program moves it.  run.py runs it before each repetition and divides the
repetitions' median wall time by its median: on a shared host whose speed
drifts by up to 2x over minutes, that ratio stays put where the raw time
does not.
"""

import random
import sys
import time
from fractions import Fraction

ROUNDS = 4


def eliminate(n: int = 40) -> int:
    rng = random.Random(12345)
    rows = [[Fraction(rng.randint(-3, 3)) if rng.random() < 0.3 else Fraction(0)
             for _ in range(n)] for _ in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def churn(n: int = 200_000) -> int:
    table = {}
    for i in range(n):
        key = (i % 97, i % 89, i & 7)
        table[key] = table.get(key, 0) + i
    return len(table)


def main() -> int:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        if (eliminate(), churn()) != (40, 69064):
            print("reference work gave a wrong result", file=sys.stderr)
            return 1
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
