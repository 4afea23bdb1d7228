"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls into entrolab: each function computes what the program
must produce from a closed form or from the definitions (Bowen distance,
aggregated F-norm, shifting coordinates by hand), so a check compares the
program against a second derivation, never against its own stored output.
"""

from __future__ import annotations

import math

import numpy as np


def least_gap(eps: float) -> int:
    """Least integer N >= 1 with 2^-N < eps."""
    N = 1
    while 2.0**-N >= eps:
        N += 1
    return N


def line_sweep(xs, scale: float, eps: float) -> int:
    """Leftmost-first sweep on a line: keep the next point whose distance to
    the last kept one, times `scale`, exceeds eps.  On a line this is both
    the greedy scan in increasing order and a maximum separated set."""
    xs = sorted(xs)
    kept, last = 1, xs[0]
    for x in xs[1:]:
        if (x - last) * scale > eps:
            kept, last = kept + 1, x
    return kept


def monotone_violations(counts: dict, size: int) -> list[str]:
    """Table laws: nondecreasing in n, nonincreasing in eps, at most |K|."""
    bad = []
    for (n, eps), s in counts.items():
        if s > size:
            bad.append(f"s({n},{eps})={s} > |K|={size}")
        if (n + 1, eps) in counts and counts[(n + 1, eps)] < s:
            bad.append(f"s decreases in n at ({n},{eps})")
        smaller = [e for (m, e) in counts if m == n and e < eps]
        if any(counts[(n, e)] < s for e in smaller):
            bad.append(f"s increases in eps at ({n},{eps})")
    return bad


def read_table_csv(text: str) -> dict:
    lines = text.strip().splitlines()
    if lines[0] != "n,epsilon,s,method,saturated":
        raise ValueError(f"unexpected table header {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        n, eps, s, *_ = line.split(",")
        out[(int(n), float(eps))] = int(s)
    return out


def cube_bowen_matrix(symbols: np.ndarray, n: int) -> np.ndarray:
    """Bowen distances inside the embedded N-symbol cube with weight 2 under
    l^inf: max_j |s_j - s'_j| * 2^-max(1, j-n+1), coordinates j from 1.

    Coordinate j of B^i phi(s) is s_{j+i} 2^-j, so symbol k is seen at
    scale 2^-(k-i) and the largest i < n with i < k gives the factor."""
    count, depth = symbols.shape
    D = np.zeros((count, count), dtype=np.float32)
    for j in range(1, depth + 1):
        w = np.float32(2.0 ** -max(1, j - n + 1))
        col = symbols[:, j - 1].astype(np.float32)
        np.maximum(D, np.abs(col[:, None] - col[None, :]) * w, out=D)
    return D


def greedy_from_matrix(D: np.ndarray, eps: float) -> int:
    """Greedy separated count in row order from a full distance matrix."""
    kept = [0]
    for j in range(1, D.shape[0]):
        if bool((D[j, kept] > eps).all()):
            kept.append(j)
    return len(kept)


def faggregate_l2(diff: np.ndarray) -> np.ndarray:
    """Truncated aggregated F-norm over l^2, along the last axis:
    sum_i 2^-i min(1, |pi_i x|_2)."""
    partial = np.sqrt(np.cumsum(np.abs(diff) ** 2, axis=-1))
    weights = 0.5 ** np.arange(1, diff.shape[-1] + 1)
    return (weights * np.minimum(1.0, partial)).sum(axis=-1)


def shift_power(x: np.ndarray, t: int, weight: float = 2.0) -> np.ndarray:
    """B_w^t for constant weight w, by moving coordinates: (B^t x)_j =
    w^t x_{j+t}, zero past the truncation."""
    out = np.zeros_like(x)
    if t < x.shape[-1]:
        out[..., : x.shape[-1] - t] = x[..., t:] * weight**t
    return out


def shift_bowen_faggregate(x: np.ndarray, y: np.ndarray, steps: int) -> float:
    """max_{0<=t<steps} |B^t x - B^t y| in the aggregated F-norm over l^2."""
    return max(float(faggregate_l2(shift_power(x - y, t))) for t in range(steps))


def diagonal_bowen(points: np.ndarray, lams, n: int) -> np.ndarray:
    """Pairwise Bowen distances under a diagonal operator in l^2, from the
    explicit eigenvalue powers lambda_c^i."""
    diff = points[:, None, :] - points[None, :, :]
    best = np.zeros(diff.shape[:2])
    for i in range(n):
        powers = np.array([complex(lam) ** i for lam in lams])
        best = np.maximum(best, np.sqrt((np.abs(diff * powers) ** 2).sum(axis=-1)))
    return best


def rotation_bowen(points: np.ndarray, c: float, n: int) -> np.ndarray:
    """Pairwise Bowen distances under c*R(theta) in l^2: the rotation keeps
    lengths, so step i scales by |c|^i, the modulus of both eigenvalues."""
    diff = points[:, None, :] - points[None, :, :]
    base = np.sqrt((diff**2).sum(axis=-1))
    return base * max(abs(c) ** i for i in range(n))


def log_sum_expanding(lams) -> float:
    """sum of log|lambda| over |lambda| > 1."""
    return math.fsum(math.log(abs(lam)) for lam in lams if abs(lam) > 1.0)
