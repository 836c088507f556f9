"""Machine-speed probe, run by ``run.py`` as a child process.

For every line on stdin it times fixed sparse polynomial products mod 7 and
writes the time in seconds as one line on stdout.  The loops have the shape
of frobsplit's own hot loops (dicts keyed by exponent tuples) and use no
frobsplit code, so their time follows the machine's speed and not the
program under test.  Contention slows small and large working sets
differently, so the probe time is the geometric mean of a product with a few
thousand output terms (median of three) and one with tens of thousands.  It
runs in its own process so that its memory does not count in the peak
resident set size of the benchmark process.
"""

import statistics
import sys
import time


def _terms(n: int, shift: int) -> dict:
    return {(i % 7, (i * shift) % 11, (i * 3) % 13, i // 17, i % 5): 1 + i % 6 for i in range(n)}


SMALL = (_terms(60, 1), _terms(60, 7))
LARGE = (_terms(150, 1), _terms(150, 7))


def product_seconds(a: dict, b: dict) -> float:
    t0 = time.perf_counter()
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = (out.get(e, 0) + ca * cb) % 7
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return time.perf_counter() - t0


def probe() -> float:
    small = statistics.median(product_seconds(*SMALL) for _ in range(3))
    return (small * product_seconds(*LARGE)) ** 0.5


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
