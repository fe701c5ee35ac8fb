"""The seeded samplers written again from ``rng.random()`` alone, as oracles.

They share no code with ``srq``: the sampler tests compare ``srq``'s points
with these bit for bit, and the two generators' states after the draws, so
a change of the draw order or of one operation fails them.

A unit quaternion follows Marsaglia (Ann. Math. Statist. 43, 1972): a point
(a, b) of the unit disk, then a point (c, d), each from the square by
rejection, give (a, b, c t, d t) with t = sqrt((1 - a^2 - b^2) / (c^2 + d^2)).
A point of the ball of radius R is a unit times R u^(1/4) for one more draw u,
drawn again if its modulus rounds to R or above.
"""

import math


def disk_oracle(rng) -> tuple:
    """(a, b, a^2 + b^2) for a uniform point (a, b) of the punctured unit disk."""
    while True:
        a = 2.0 * rng.random() - 1.0
        b = 2.0 * rng.random() - 1.0
        if 0.0 < a * a + b * b < 1.0:
            return a, b, a * a + b * b


def unit_oracle(rng) -> tuple:
    a, b, s1 = disk_oracle(rng)
    c, d, s2 = disk_oracle(rng)
    t = math.sqrt((1.0 - s1) / s2)
    return a, b, c * t, d * t


def ball_oracle(rng, radius) -> tuple:
    while True:
        unit = unit_oracle(rng)
        r = radius * math.sqrt(math.sqrt(rng.random()))
        w, x, y, z = (v * r for v in unit)
        if math.sqrt(w * w + x * x + y * y + z * z) < radius:
            return w, x, y, z
