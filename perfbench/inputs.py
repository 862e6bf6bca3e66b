"""Seeded generator of the check-data input files.

Outcomes are fair +-1 draws. Each cell is written in one of the spellings
the parser accepts, in fixed shares: the shares below are exact counts per
outcome value, placed at random positions. BOM-prefixed files and trailing
blank lines are left out on purpose: the parser rejects both today, which
is a correctness question for the tests, not traffic to time.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

PLUS_SPELLINGS = ((b"+1", 0.4), (b"1", 0.3), (b" +1", 0.1), (b"1 ", 0.1), (b" 1 ", 0.1))
MINUS_SPELLINGS = ((b"-1", 0.7), (b" -1", 0.15), (b"-1 ", 0.15))
TRIPLE_HEADER = b"a,b,bp\n"
QUAD_HEADER = b"a,ap,b,bp\n"

_TOKENS = tuple(s for s, _ in PLUS_SPELLINGS + MINUS_SPELLINGS)
_N_PLUS = len(PLUS_SPELLINGS)


def _exact_shares(count: int, spellings, offset: int, rng: np.random.Generator) -> np.ndarray:
    """`count` token indices with each spelling's share rounded down, rest to the first."""
    sizes = [int(count * share) for _, share in spellings]
    sizes[0] += count - sum(sizes)
    tokens = np.repeat(np.arange(offset, offset + len(spellings)), sizes)
    return rng.permutation(tokens)


def render_rows(values: np.ndarray, rng: np.random.Generator) -> bytes:
    """CSV body (no header) for an (n, width) array of +-1 outcomes."""
    n, width = values.shape
    flat = values.reshape(-1)
    tokens = np.empty(flat.size, dtype=np.int64)
    plus = flat == 1
    tokens[plus] = _exact_shares(int(plus.sum()), PLUS_SPELLINGS, 0, rng)
    tokens[~plus] = _exact_shares(int((~plus).sum()), MINUS_SPELLINGS, _N_PLUS, rng)
    base = len(_TOKENS)
    codes = (tokens.reshape(n, width) * base ** np.arange(width - 1, -1, -1)).sum(axis=1)
    table = np.array(
        [b",".join(combo) + b"\n" for combo in itertools.product(_TOKENS, repeat=width)],
        dtype=object,
    )
    return b"".join(table[codes].tolist())


def outcomes(seed: int, stream: int, n: int, width: int) -> tuple[np.ndarray, np.random.Generator]:
    rng = np.random.default_rng([seed, stream])
    values = np.where(rng.random((n, width)) < 0.5, 1, -1).astype(np.int8)
    return values, rng


def write_inputs(directory: Path, seed: int, triples_rows: int, quads_rows: int) -> dict:
    """Write triples.csv and quads.csv; return their paths and outcome arrays."""
    triples, rng = outcomes(seed, 0, triples_rows, 3)
    triples_path = directory / "triples.csv"
    triples_path.write_bytes(TRIPLE_HEADER + render_rows(triples, rng))
    quads, rng = outcomes(seed, 1, quads_rows, 4)
    quads_path = directory / "quads.csv"
    quads_path.write_bytes(QUAD_HEADER + render_rows(quads, rng))
    return {
        "triples_path": triples_path,
        "triples": triples,
        "quads_path": quads_path,
        "quads": quads,
    }
