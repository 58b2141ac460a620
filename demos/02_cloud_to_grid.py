#!/usr/bin/env python3
"""
Point cloud to surface grid.

Synthesises a laser-scan style point cloud of the upper fuselage, cuts a
named section out of it, interpolates the section onto the regular 5 cm
lattice, and exports the lattice as CSV.
"""

import tempfile
from pathlib import Path

import numpy as np

from ptzscan import PointCloud, SectionSpec, interpolate_section, section_points
from ptzscan.formats import write_grid_csv


def synthetic_scan(rng, n=60_000):
    """Scattered points on a radius-2 cylinder at height 2, 0..20 m long."""
    theta = rng.uniform(np.pi * 0.15, np.pi * 0.85, n)  # upper arc only
    y = rng.uniform(0.0, 20.0, n)
    x = 2.0 * np.cos(theta)
    z = 2.0 + 2.0 * np.sin(theta)
    jitter = rng.normal(0.0, 0.001, (n, 3))  # 1 mm sensor noise
    return PointCloud(points=np.column_stack([x, y, z]) + jitter)


def main():
    rng = np.random.default_rng(7)
    print("--- 1. Synthesising a scan ---\n")
    cloud = synthetic_scan(rng)
    print(f"cloud: {len(cloud.points)} points")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    print(f"bounds: x [{lo[0]:.2f}, {hi[0]:.2f}]  y [{lo[1]:.2f}, {hi[1]:.2f}]"
          f"  z [{lo[2]:.2f}, {hi[2]:.2f}]\n")

    print("--- 2. Cutting the rear-left section ---\n")
    spec = SectionSpec(
        name="fuselage_rear_upper",
        kind="fuselage",
        box_min=(-1.9, 9.9, 0.0),
        box_max=(0.1, 20.1, 4.5),
        relevance="back-half",
    )
    sub = section_points(cloud, spec)
    print(f"section {spec.name!r}: {len(sub.points)} points inside the box\n")

    print("--- 3. Interpolating onto the 5 cm lattice ---\n")
    grid = interpolate_section(sub, spec)
    rows, cols = grid.shape
    present = int(grid.valid.sum())
    print(f"grid: {rows} rows x {cols} cols, {present} cells inside the data hull")
    print(f"row spacing {grid.row_values[1] - grid.row_values[0]:.3f} m, "
          f"col spacing {grid.col_values[1] - grid.col_values[0]:.3f} m")

    # Spot-check the interpolation against the analytic surface.
    errors = []
    for i in range(0, rows, max(rows // 6, 1)):
        for j in range(0, cols, max(cols // 6, 1)):
            if not grid.valid[i, j]:
                continue
            cell = grid.points[i, j]
            analytic = 2.0 + np.sqrt(max(4.0 - cell[0] ** 2, 0.0))
            errors.append(abs(cell[2] - analytic))
    print(f"spot-check vs analytic cylinder: worst {max(errors):.5f} m "
          f"(1 mm jitter in the cloud)\n")

    print("--- 4. Exporting ---\n")
    with tempfile.TemporaryDirectory(prefix="ptzscan_demo_") as tmp:
        out = Path(tmp) / "fuselage_grid.csv"
        write_grid_csv(out, grid)
        print(f"wrote {out} ({out.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
