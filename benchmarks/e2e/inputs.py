"""Seed -> inputs of one workload, on disk under ``out/inputs/``.

The seed is the only argument.  Base tiles come from
``repro.data.generate_tile`` (0.7-2 s each), so an input is enlarged by
translated copies of a few base tiles placed at distinct coordinates,
never by generating more.  One input is a list of tiles, each with the
two segmentation results A and B; its candidate pairs are the MBR join
of A and B per tile, computed here by brute force so the input does not
depend on the index layer it is used to measure.

The base tiles are the same for every seed.  With tiles generated from
the seed, the seed alone moved the kernel's work on ``pairs_heavy`` by
9 % (coefficient of variation of ``pixel_tests`` over eight seeds, at
equal pair counts), more than the regression bound: the ~70 large pairs
of two base tiles are too few to average out.  The seed instead draws
the sample: every copy of a base tile keeps its own 90 % of the tile's A
polygons, and the seed decides which, the order of the copies and where
each is placed.  Work then differs between seeds by about 1 %.

Written per input: ``tiles.npz`` (what a trial process loads), the
polygon text files ``result_a/`` and ``result_b/`` (what the program
parses) and ``meta.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# (width, height, nuclei, mean_radius, radius_sd).  "nuclei" are the
# paper's ~150-pixel objects; on "large" the sampling-box recursion
# engages (~18 pops per pair against ~1.1 for nuclei).
TILE_CLASSES = {
    "nuclei": (512, 512, 400, 6.5, 2.0),
    "mid": (768, 768, 120, 20.0, 8.0),
    "large": (1024, 1024, 40, 45.0, 15.0),
}
QUICK_TILE_CLASSES = {
    "nuclei": (192, 192, 50, 6.5, 2.0),
    "mid": (256, 256, 16, 14.0, 4.0),
    "large": (320, 320, 8, 28.0, 6.0),
}
CLASS_NAMES = tuple(TILE_CLASSES)

# workload -> [(class, base tiles, candidate pairs)], sized so that one
# timed repetition takes 1.2-1.5 s on the 2-core reference host.  By
# count pairs_heavy is 65 % nuclei, 29 % mid and 6 % large; by kernel
# time the mid+large tail is about three quarters.
RECIPES = {
    "files_nuclei": [("nuclei", 3, 5200)],
    "pairs_heavy": [("nuclei", 2, 4700), ("mid", 2, 2100), ("large", 2, 440)],
    "service_mix": [("nuclei", 3, 864)],
}
QUICK_RECIPES = {
    "files_nuclei": [("nuclei", 2, 150)],
    "pairs_heavy": [("nuclei", 1, 60), ("mid", 1, 20), ("large", 1, 6)],
    "service_mix": [("nuclei", 2, 72)],
}
# pairs_heavy_mp runs the very same input through another backend.
RECIPE_OF = {"pairs_heavy_mp": "pairs_heavy"}

# The arrays of an answer, as ``BatchAreas`` and the service name them.
AREA_FIELDS = ("intersection", "union", "area_p", "area_q")

# First generator seed of the base tiles; not derived from --seed.
BASE_TILE_SEED = 2012
KEEP_SHARE = 0.9  # of a base tile's A polygons, per copy

# Tiles sit on a grid of this pitch (>= the widest tile).
TILE_PITCH = 1024
TILES_PER_ROW = 16
TILE_ROWS = 8


def tile_origin(index: int) -> tuple[int, int]:
    return (index % TILES_PER_ROW) * TILE_PITCH, (index // TILES_PER_ROW) * TILE_PITCH


def _flatten(polygons) -> tuple[np.ndarray, np.ndarray]:
    """Vertex arrays of a polygon list as one (n, 2) array + offsets."""
    arrays = [np.asarray(p.vertices, dtype=np.int64) for p in polygons]
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrays], out=offsets[1:])
    return np.concatenate(arrays), offsets


def _select(verts: np.ndarray, offsets: np.ndarray, keep: np.ndarray):
    """The polygons ``keep`` (ascending indices) of a flattened list."""
    sizes = np.diff(offsets)[keep]
    out = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    rows = np.repeat(offsets[keep] - out[:-1], sizes) + np.arange(out[-1])
    return verts[rows], out


def _mbrs(verts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    lo = np.minimum.reduceat(verts, offsets[:-1], axis=0)
    hi = np.maximum.reduceat(verts, offsets[:-1], axis=0)
    return np.hstack([lo, hi])


def _mbr_join(mbr_a: np.ndarray, mbr_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) whose MBRs overlap with positive area, i then j ascending."""
    a, b = mbr_a[:, None, :], mbr_b[None, :, :]
    hit = (
        (a[..., 0] < b[..., 2]) & (b[..., 0] < a[..., 2])
        & (a[..., 1] < b[..., 3]) & (b[..., 1] < a[..., 3])
    )
    left, right = np.nonzero(hit)
    return left.astype(np.int64), right.astype(np.int64)


def _write_tile_file(path: Path, verts: np.ndarray, offsets: np.ndarray) -> None:
    """The program's input format: one polygon per line, ``x,y x,y ...``."""
    lines = []
    for s, e in zip(offsets[:-1], offsets[1:]):
        lines.append(" ".join(f"{x},{y}" for x, y in verts[s:e].tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass
class Inputs:
    """One workload's input, as loaded from ``tiles.npz``."""

    root: Path
    meta: dict
    verts_a: np.ndarray
    off_a: np.ndarray
    verts_b: np.ndarray
    off_b: np.ndarray
    pair_a: np.ndarray  # index into the A polygons, per candidate pair
    pair_b: np.ndarray
    pair_class: np.ndarray  # index into CLASS_NAMES, per candidate pair
    tile_off_a: np.ndarray  # first A polygon of each tile, plus the end
    tile_off_b: np.ndarray

    @property
    def dir_a(self) -> Path:
        return self.root / "result_a"

    @property
    def dir_b(self) -> Path:
        return self.root / "result_b"

    def base_polygons(self):
        """Polygon objects of both sides.  Never handed to the program:
        every timed call gets a :meth:`fresh` copy instead."""
        from repro import RectilinearPolygon

        def side(verts, off):
            return [
                RectilinearPolygon(verts[s:e], validate=False)
                for s, e in zip(off[:-1], off[1:])
            ]

        return side(self.verts_a, self.off_a), side(self.verts_b, self.off_b)

    def tiles(self, polygons):
        """Both polygon lists cut into per-tile ``(A, B)`` lists."""
        side_a, side_b = polygons
        cuts_a, cuts_b = self.tile_off_a.tolist(), self.tile_off_b.tolist()
        return [
            (side_a[a0:a1], side_b[b0:b1])
            for a0, a1, b0, b1 in zip(cuts_a, cuts_a[1:], cuts_b, cuts_b[1:])
        ]

    def fresh(self, base, dx: int, dy: int, select: np.ndarray | None = None):
        """Candidate pairs over never-seen polygon objects.

        Areas are translation invariant, so the work and the answers are
        those of the base input, while every ``cached_property`` and
        every cache tier of the program is cold.  A polygon shared by
        several pairs is one object, as in a join's output.
        """
        pair_a, pair_b = self.pair_a, self.pair_b
        if select is not None:
            pair_a, pair_b = pair_a[select], pair_b[select]
        base_a, base_b = base
        moved_a = {i: base_a[i].translate(dx, dy) for i in np.unique(pair_a).tolist()}
        moved_b = {j: base_b[j].translate(dx, dy) for j in np.unique(pair_b).tolist()}
        return [(moved_a[i], moved_b[j]) for i, j in zip(pair_a.tolist(), pair_b.tolist())]


def input_root(workload: str, seed: int, quick: bool) -> Path:
    return OUT / "inputs" / f"{workload}-seed{seed}{'-quick' if quick else ''}"


def build(workload: str, seed: int, quick: bool = False) -> Inputs:
    """Generate and write the input of ``workload`` for ``seed``."""
    from repro.data import TileSpec, generate_tile

    recipe = (QUICK_RECIPES if quick else RECIPES)[RECIPE_OF.get(workload, workload)]
    classes = QUICK_TILE_CLASSES if quick else TILE_CLASSES
    start = time.perf_counter()
    root = input_root(workload, seed, quick)
    shutil.rmtree(root, ignore_errors=True)
    (root / "result_a").mkdir(parents=True)
    (root / "result_b").mkdir()

    rng = np.random.default_rng(seed)
    parts_a, parts_b, pair_a, pair_b, pair_class = [], [], [], [], []
    tile_off_a, tile_off_b = [0], [0]
    count_a = count_b = base_tiles = file_bytes = 0
    cells = iter(rng.permutation(TILE_ROWS * TILES_PER_ROW).tolist())
    for cls, bases, target in recipe:
        width, height, nuclei, radius, radius_sd = classes[cls]
        tiles = []
        for b in range(bases):
            tile_seed = BASE_TILE_SEED + CLASS_NAMES.index(cls) * 16 + b
            tile = generate_tile(
                TileSpec(width, height, nuclei, radius, radius_sd, seed=tile_seed)
            )
            va, oa = _flatten(tile.polygons_a)
            vb, ob = _flatten(tile.polygons_b)
            tiles.append((va, oa, vb, ob, *_mbr_join(_mbrs(va, oa), _mbrs(vb, ob))))
        base_tiles += bases
        if not any(len(t[4]) for t in tiles):
            raise ValueError(f"the {cls} base tiles have no candidate pair")
        # Copies of the base tiles in turn until the class has its pairs;
        # the last copy is cut short, so that the pair count, the main
        # driver of work, is exact to within one polygon's pairs.
        remaining, turn, order = target, 0, rng.permutation(bases)
        while remaining > 0:
            va, oa, vb, ob, left, right = tiles[order[turn % bases]]
            turn += 1
            kept = np.flatnonzero(rng.random(len(oa) - 1) < KEEP_SHARE)
            in_kept = np.isin(left, kept)
            left, right = np.searchsorted(kept, left[in_kept]), right[in_kept]
            if len(left) > remaining:
                kept = kept[: left[remaining]]  # pairs are sorted by A index
                left, right = left[left < len(kept)], right[left < len(kept)]
                remaining = len(left)
            if len(left) == 0:
                break
            remaining -= len(left)
            va, oa = _select(va, oa, kept)
            tile_index = len(tile_off_a) - 1
            shift = np.array(tile_origin(next(cells)), dtype=np.int64)
            for side, verts, off, parts in (
                ("result_a", va, oa, parts_a),
                ("result_b", vb, ob, parts_b),
            ):
                parts.append((verts + shift, off))
                path = root / side / f"tile_{tile_index:04d}.txt"
                _write_tile_file(path, verts + shift, off)
                file_bytes += path.stat().st_size
            pair_a.append(left + count_a)
            pair_b.append(right + count_b)
            pair_class.append(np.full(len(left), CLASS_NAMES.index(cls), dtype=np.int64))
            count_a += len(oa) - 1
            count_b += len(ob) - 1
            tile_off_a.append(count_a)
            tile_off_b.append(count_b)
    tile_index = len(tile_off_a) - 1

    def join_sides(parts):
        verts = np.concatenate([v for v, _ in parts])
        sizes = np.concatenate([np.diff(o) for _, o in parts])
        off = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=off[1:])
        return verts, off

    arrays = {
        "pair_a": np.concatenate(pair_a),
        "pair_b": np.concatenate(pair_b),
        "pair_class": np.concatenate(pair_class),
        "tile_off_a": np.array(tile_off_a, dtype=np.int64),
        "tile_off_b": np.array(tile_off_b, dtype=np.int64),
    }
    arrays["verts_a"], arrays["off_a"] = join_sides(parts_a)
    arrays["verts_b"], arrays["off_b"] = join_sides(parts_b)
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(arrays[name].tobytes())
    np.savez(root / "tiles.npz", **arrays)
    meta = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "digest": digest.hexdigest(),
        "base_tiles": base_tiles,
        "tiles": tile_index,
        "polygons": count_a + count_b,
        "pairs": int(len(arrays["pair_a"])),
        "pairs_by_class": {
            name: int((arrays["pair_class"] == k).sum())
            for k, name in enumerate(CLASS_NAMES)
        },
        "file_bytes": file_bytes,
        "generate_s": time.perf_counter() - start,
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=1))
    return Inputs(root=root, meta=meta, **arrays)


def load(root: Path) -> Inputs:
    """What a trial process does before its clock starts."""
    root = Path(root)
    with np.load(root / "tiles.npz") as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads((root / "meta.json").read_text())
    return Inputs(root=root, meta=meta, **arrays)
