"""Algorithm validation study: the paper's motivating workflow (§2.1).

A pathologist evaluates a new segmentation algorithm by cross-comparing
its output against a reference over a whole image: per-tile similarity,
missing-polygon counts, and the image-level J'.  This example generates a
multi-tile dataset on disk, cross-compares it tile by tile, and
prints the per-tile breakdown a validation report would contain.

Run:  python examples/algorithm_validation.py
"""

import tempfile
from pathlib import Path

from repro import Session
from repro.data import DatasetSpec, PerturbModel, generate_dataset
from repro.io import pair_result_sets, read_polygons


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="sccg-validation-"))
    # A "new algorithm" that systematically under-segments a little:
    # boundaries shrink and a few objects are missed.
    model = PerturbModel(grow_sd=0.08, shift_sd=1.0, drop_rate=0.08,
                         spurious_rate=0.04)
    spec = DatasetSpec(name="validation", tiles=6, nuclei_per_tile=55,
                       tile_width=512, tile_height=512, seed=21)
    dir_a, dir_b = generate_dataset(spec, workdir, perturb=model)
    print(f"dataset: {spec.tiles} tiles under {workdir}")

    # One warm session serves the per-tile breakdown and the image-level
    # run alike: compare_files is compare_sets per tile, summed.
    with Session() as session:
        # Per-tile report (what the sensitivity study reads).
        print(f"\n{'tile':>4}  {'J-prime':>8}  {'pairs':>5}  "
              f"{'missing A':>9}  {'missing B':>9}")
        for pair in pair_result_sets(dir_a, dir_b):
            tile_a = read_polygons(pair.file_a)
            tile_b = read_polygons(pair.file_b)
            tile = session.compare_sets(tile_a, tile_b)
            print(f"{pair.tile_id:>4}  {tile.jaccard_mean:>8.4f}  "
                  f"{tile.intersecting_pairs:>5}  {tile.missing_a:>9}  "
                  f"{tile.missing_b:>9}")

        # Whole-image result: the same comparison over every tile.
        outcome = session.compare_files(dir_a, dir_b)
    print(f"\nimage-level J' = {outcome.jaccard_mean:.4f} over "
          f"{outcome.intersecting_pairs} pairs "
          f"({outcome.wall_seconds:.2f}s, "
          f"{outcome.throughput / 1e6:.2f} MB/s)")
    print(f"missing polygons: {outcome.missing_a} of {outcome.count_a} "
          f"reference objects unmatched; {outcome.missing_b} of "
          f"{outcome.count_b} new-algorithm objects spurious")


if __name__ == "__main__":
    main()
