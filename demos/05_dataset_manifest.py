#!/usr/bin/env python3
"""
Domain-randomised dataset manifest.

Draws camera deployments, pan-tilt settings, material colours, and
texture placements from a quadrant's admissible ranges, splits them into
train/val/test, validates every deployment, and shows that the whole
manifest reproduces bit-for-bit from its seed.
"""

import tempfile
from pathlib import Path

import numpy as np

from ptzscan import (
    DeploymentBoundary,
    SplitSizes,
    generate_manifest,
    sample_pose,
    validate_deployment,
)
from ptzscan.formats import write_manifest_json


def main():
    print("--- 1. Deployment boundary for quadrant 3 ---\n")
    boundary = DeploymentBoundary(
        quadrant=3, x_range=(-10.5, -8.5), y_range=(11.5, 14.5)
    )
    print(f"x {boundary.x_range} m,  y {boundary.y_range} m,  "
          f"height {boundary.height_range} m")
    print(f"nominal pan {boundary.nominal_pan_deg} deg, "
          f"yaw window +/-{boundary.yaw_window_deg} deg, "
          f"tilt {boundary.tilt_center_deg} +/- {boundary.tilt_tolerance_deg} deg\n")

    print("--- 2. Generating the manifest ---\n")
    sizes = SplitSizes(train=400, val=70, test=30)
    manifest = generate_manifest(boundary, sizes=sizes, seed=2718)
    print(f"{len(manifest.samples)} samples "
          f"(train {sizes.train} / val {sizes.val} / test {sizes.test})")
    first = manifest.samples[0]  # a sample is its manifest record
    print(f"first sample: position {np.round(first['position_m'], 3)}, "
          f"yaw {first['yaw_deg']:.2f}, pan {first['pan_deg']:.2f}, "
          f"tilt {first['tilt_deg']:.2f}")
    print(f"randomised objects: {sorted(first['colors'])}\n")

    print("--- 3. Validating every deployment ---\n")
    failures = sum(
        not validate_deployment(sample_pose(s), boundary).passed
        for s in manifest.samples
    )
    print(f"{len(manifest.samples) - failures} / {len(manifest.samples)} "
          "samples inside the boundary\n")

    print("--- 4. Reproducibility ---\n")
    with tempfile.TemporaryDirectory(prefix="ptzscan_demo_") as tmp:
        out = Path(tmp)
        write_manifest_json(out / "a.json", manifest)
        write_manifest_json(out / "b.json", generate_manifest(boundary, sizes=sizes, seed=2718))
        identical = (out / "a.json").read_bytes() == (out / "b.json").read_bytes()
        print(f"two generations from seed 2718 -> identical files: {identical}")
        print(f"manifest at {out / 'a.json'} ({(out / 'a.json').stat().st_size} bytes)")


if __name__ == "__main__":
    main()
