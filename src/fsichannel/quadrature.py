"""Quadrature rules on the reference triangle and reference edge."""

import numpy as np


def triangle_rule():
    """Symmetric 12-point rule of polynomial degree 6 (Dunavant).

    Returns (points, weights): points (12,2) on the unit right triangle,
    weights summing to its area 1/2.
    """
    groups = [
        (0.063089014491502, None, 0.050844906370207),
        (0.249286745170910, None, 0.116786275726379),
        (0.053145049844816, 0.310352451033785, 0.082851075618374),
    ]
    pts, wts = [], []
    for a, b, w in groups:
        if b is None:
            bary = [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]
        else:
            c = 1.0 - a - b
            bary = [
                (c, a, b), (c, b, a), (a, c, b),
                (b, c, a), (a, b, c), (b, a, c),
            ]
        for l0, l1, l2 in bary:
            pts.append((l1, l2))
            wts.append(0.5 * w)
    return np.asarray(pts), np.asarray(wts)


def edge_rule():
    """4-point Gauss-Legendre rule on [0, 1] (degree 7)."""
    x, w = np.polynomial.legendre.leggauss(4)
    return 0.5 * (x + 1.0), 0.5 * w


TRI_POINTS, TRI_WEIGHTS = triangle_rule()
EDGE_POINTS, EDGE_WEIGHTS = edge_rule()
