"""The four test-time augmentations and their reproducibility guarantees.

    python3 demos/02_augmentations.py
"""

import numpy as np

from segtta import (
    AugmentationSpec,
    SeededRng,
    apply,
    default_augmentations,
    make_phantom,
    normalize_intensity,
)

volume, _ = make_phantom(dims=(48, 48, 32), seed=3, vol_id="demo")
volume = normalize_intensity(volume)


def describe(name, before, after):
    delta = after.data - before.data
    print(f"{name:<42} mean {after.data.mean():.4f}  "
          f"std {after.data.std():.4f}  max|change| {np.abs(delta).max():.4f}")


print(f"{'view':<42} statistics")
describe("original", volume, volume)

# The standard set: gamma, contrast, blur, noise, with mild magnitudes.
# Each transform is deterministic; noise draws from a stream keyed by
# (seed, volume id, augmentation label), so reruns are bit-identical.
for spec in default_augmentations():
    stream = SeededRng(2024, "augment", volume.vol_id, spec.label())
    describe(spec.label(), volume, apply(spec, volume, stream))

print()

# Stronger blur smooths more; the kernel is truncated at 3 sigma and
# renormalized, so constant regions are preserved exactly.
for sigma in (0.5, 1.0, 2.0, 4.0):
    spec = AugmentationSpec("gaussian_blur", sigma=sigma)
    blurred = apply(spec, volume, SeededRng(2024))
    print(f"blur sigma={sigma:>3}: std {blurred.data.std():.4f}")

print()

# Reproducibility: the same stream gives the same noise, a different
# volume id gives an independent field.
spec = AugmentationSpec("gaussian_noise", sigma=0.05)
a = apply(spec, volume, SeededRng(2024, "augment", "demo", spec.label()))
b = apply(spec, volume, SeededRng(2024, "augment", "demo", spec.label()))
c = apply(spec, volume, SeededRng(2024, "augment", "other", spec.label()))
print(f"same stream bit-identical: {np.array_equal(a.data, b.data)}")
print(f"different volume id differs: {not np.array_equal(a.data, c.data)}")
