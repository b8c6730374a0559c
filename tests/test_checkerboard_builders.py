"""The checkerboard's strips and its marked pair rows are read from one patch
grid (`density._grid_columns` and `_grid_rows`, through `_strips` and
`_as_pairs`).  These tests pin them to loops over that grid's lines in
`make_checkerboard`, `MarkedGrid.pairs` and
`hierarchy.embed_in_neighborhood`: the same cells and edges, in the same
order, with every float equal bit for bit.  A patch's strip edges are its
grid columns ax + lam * (j * M) / NM, so each marked edge lies on its
strip's lines."""

import random

import numpy as np
import pytest

from bknet import Rect, make_checkerboard, marked_grid
from bknet.hierarchy import embed_in_neighborhood


def former_checkerboard_cells(N, c):
    cells = []
    for j in range(N):
        r = Rect(j / N, 0.0, (j + 1) / N, 1.0 / N)
        cells.append((r, 1.0 if j % 2 == 0 else 1.0 + c))
    return cells


def former_grid_pairs(N, M):
    NM = N * M
    return [
        ((p / NM, s / NM), ((p + 1) / NM, s / NM))
        for s in range(M + 1)
        for p in range(NM)
    ]


def former_patch(seg, U, N, c, M):
    """The patch rectangle, cells and pairs as loops over the patch grid's
    columns ax + lam * a / NM, the last strip and the last marked edge
    ending at the segment end bx."""
    (ax, y), (bx, _) = seg
    lam = bx - ax
    h = min(lam / N, U.y1 - y)
    NM = N * M

    def column(a):
        return bx if a == NM else ax + lam * a / NM

    cells = []
    for j in range(N):
        r = Rect(column(j * M), y, column((j + 1) * M), y + h)
        cells.append((r, 1.0 if j % 2 == 0 else 1.0 + c))
    pairs = []
    for s in range(M + 1):
        py = y + lam * s / NM
        if py > y + h:
            break
        for p in range(NM):
            pairs.append(((column(p), py), (column(p + 1), py)))
    return Rect(ax, y, bx, y + h), cells, pairs


def bits(rows):
    """The float64 bytes of nested rows of floats, in order.  float.hex is
    one to one on float64 bit patterns, so two row lists give equal bytes
    exactly when their floats have equal float.hex, one for one."""
    a = np.array(rows)
    assert a.dtype == np.float64
    return a.tobytes()


def cell_rows(cells):
    return [(r.x0, r.y0, r.x1, r.y1, v) for r, v in cells]


@pytest.mark.parametrize("N", range(1, 65))
def test_checkerboard_strips_match_the_former_loop(N):
    for c in (1.0, 0.3, 1e-3):
        cells = make_checkerboard(N, c).cells
        assert bits(cell_rows(cells)) == bits(cell_rows(former_checkerboard_cells(N, c)))


@pytest.mark.parametrize("N", range(1, 65))
def test_marked_grid_pairs_match_the_former_comprehension(N):
    for M in range(1, 13):
        pairs = marked_grid(N, M).pairs
        assert len(pairs) == N * M * (M + 1)   # row M, at 1/N, is kept
        assert bits(pairs) == bits(former_grid_pairs(N, M))


def test_patches_on_drawn_segments_match_the_former_loops():
    rng = random.Random(14)
    rows_kept = set()
    for _ in range(300):
        N, M = rng.randint(1, 64), rng.randint(1, 12)
        c = rng.uniform(0.01, 2.0)
        ax, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        lam = rng.choice([rng.uniform(1e-6, 4.0), 2.0 ** -rng.randint(0, 30)])
        seg = ((ax, y), (ax + lam, y))
        # room above the segment: from far below the natural height lam / N
        # (a clipped patch keeps only its lowest rows) to above it
        room = lam / N * rng.choice([rng.uniform(0.01, 1.5), 1.0, 2.0])
        U = Rect(ax, y, ax + lam, y + room)
        field, pairs, _ = embed_in_neighborhood(seg, U, N, c, M, 2.0)
        rect, cells = field.domain, field.cells
        want_rect, want_cells, want_pairs = former_patch(seg, U, N, c, M)
        assert bits(cell_rows([(rect, 1.0)])) == bits(cell_rows([(want_rect, 1.0)]))
        assert bits(cell_rows(cells)) == bits(cell_rows(want_cells))
        assert bits(pairs) == bits(want_pairs)
        rows_kept.add((len(pairs) // (N * M), M + 1))
    # clipped patches with several, one and all rows kept were drawn
    assert any(1 < rows < full for rows, full in rows_kept)
    assert any(rows == 1 < full for rows, full in rows_kept)
    assert any(rows == full for rows, full in rows_kept)
