"""A small external segmentation model for the deploy workload.

    python model.py INPUT OUTPUT THRESHOLD CLASSES

Reads a normalized float32 volume and writes a two-class float32
probability map: foreground probability is a logistic step of the
intensity around THRESHOLD. It stands in for a real model wrapper, so the
deploy workload pays the real costs of the external backend: a process
spawn, an interpreter start and a NIfTI exchange per map.
"""

import sys

import numpy as np

import nii

SOFTNESS = 0.05


def main(argv):
    input_path, output_path, threshold, classes = argv
    if int(classes) != 2:
        raise SystemExit(f"model handles 2 classes, got {classes}")
    volume, spacing = nii.read(input_path)
    fg = 1.0 / (1.0 + np.exp(-(volume.astype(np.float64) - float(threshold)) / SOFTNESS))
    nii.write_float32(output_path, np.stack([1.0 - fg, fg], axis=-1), spacing)


if __name__ == "__main__":
    main(sys.argv[1:])
