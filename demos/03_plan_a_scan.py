#!/usr/bin/env python3
"""
Overlap-aware scan planning.

Maps a fuselage section grid into the camera's pan-tilt frame, forecasts
the image count from the grid's angular extent, then runs the row/column
selection and prints the resulting shot list.
"""

import numpy as np

from ptzscan import (
    PointCloud,
    QuadrantSetup,
    ScanConfig,
    SectionSpec,
    compute_alpha,
    estimate_image_count,
    grid_to_pantilt,
    interpolate_section,
    plan_full,
    section_points,
)

CAMERA = np.array([-9.5, 13.0, 6.75])
YAW_DEG = 20.0
QUADRANT = 3


def build_section_grid():
    """Upper cylinder surface x in [-1.8, 0], y in [10, 20], 1 cm lattice."""
    step = 0.01
    xs = np.arange(-1.8, 0.0 + step / 2, step)
    ys = np.arange(10.0, 20.0 + step / 2, step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = 2.0 + np.sqrt(np.maximum(4.0 - xx * xx, 0.0))
    cloud = PointCloud(points=np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]))
    spec = SectionSpec(
        name="fuselage_rear_upper",
        kind="fuselage",
        box_min=(-1.9, 9.9, 0.0),
        box_max=(0.1, 20.1, 4.5),
        relevance="back-half",
    )
    return interpolate_section(section_points(cloud, spec), spec)


def main():
    print("--- 1. Camera deployment ---\n")
    setup = QuadrantSetup(QUADRANT, YAW_DEG, CAMERA)
    alpha = compute_alpha(setup)
    print(f"camera at {CAMERA}, yaw {YAW_DEG} deg, quadrant {QUADRANT}")
    print(f"pan-zero offset alpha = {alpha:.2f} deg "
          "(yaw minus the quadrant's nominal pan)\n")

    print("--- 2. Section in pan-tilt coordinates ---\n")
    grid = build_section_grid()
    u = grid_to_pantilt(grid, setup)
    pans = u.pans[u.valid]
    tilts = u.tilts[u.valid]
    print(f"grid {grid.shape[0]}x{grid.shape[1]}, {int(u.valid.sum())} present cells")
    print(f"pan span  [{pans.min():7.2f}, {pans.max():7.2f}] deg")
    print(f"tilt span [{tilts.min():7.2f}, {tilts.max():7.2f}] deg\n")

    print("--- 3. Forecast, then plan ---\n")
    cfg = ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=0.15)
    forecast = estimate_image_count(u, cfg, kind="fuselage")
    print(f"FOV {cfg.hfov_deg} x {cfg.vfov_deg} deg, overlap mu = {cfg.mu}")
    print(f"closed-form forecast: {forecast:.1f} images")
    plan = plan_full([(u, grid, "fuselage")], cfg, QUADRANT)
    print(f"planned images:       {len(plan)}\n")

    print("--- 4. Shot list (first rows) ---\n")
    shots = plan.sections[0]
    print("  seq    pan      tilt    label (x, y, z)")
    first = zip(shots.pans[:12], shots.tilts[:12], shots.labels[:12])
    for seq, (pan, tilt, (x, y, z)) in enumerate(first):
        print(f"  {seq:3d}  {pan:7.2f}  {tilt:7.2f}   ({x:6.2f}, {y:6.2f}, {z:5.2f})")
    if len(shots) > 12:
        print(f"  ... {len(shots) - 12} more")


if __name__ == "__main__":
    main()
