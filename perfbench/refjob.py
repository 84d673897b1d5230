"""Fixed reference job: the benchmark's yardstick for machine speed.

It runs between timed commands, as a fresh process like them, and mixes the
kinds of work saddlesim does: streaming over large random arrays, small dense
products in a Python loop, many tiny numpy calls with a fresh generator each,
and plain Python arithmetic.  Dividing a command's wall time by the reference
job's wall time around it cancels most of the drift in speed of a shared
machine.  It does not import saddlesim, so no change to the program moves it.
"""

import numpy as np

rng = np.random.default_rng(0)
for _ in range(3):
    draws = rng.uniform(-1.0, 1.0, size=(400, 60, 60))
    masked = np.where(draws > 0.5, draws, 0.0)
    b = np.ones((60, 60))
    for k in range(400):
        b = b * 0.999 + masked[k]
a = rng.standard_normal((60, 60))
x = np.ones(60)
for _ in range(3000):
    h = (a.T * (x * x)) @ a
    g = h @ x
    x = x - 1e-3 * g / (1.0 + np.linalg.norm(g))
m = 0.0
for i in range(3000):
    r = np.random.default_rng((0, i))
    p, q = r.standard_normal(2), r.standard_normal(2)
    m = max(m, float(np.linalg.norm(np.outer(p, p) - np.outer(q, q)) / np.linalg.norm(p - q)))
s = 0.0
for i in range(200_000):
    s += (i % 7) * 0.5
