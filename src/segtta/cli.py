"""Command line interface.

Each pipeline stage is independently scriptable:

    segtta run     --config cfg.json --manifest data/manifest.json --out runs/x
    segtta ablate  --config cfg.json --manifest data/manifest.json --out runs/a
    segtta sweep   --config cfg.json --manifest data/manifest.json --taus 0.3,0.6,0.9
    segtta augment --input scan.nii.gz --output blurred.nii.gz --kind gaussian_blur --sigma 1.5
    segtta fuse    --output mask.nii.gz --mode threshold_weighted --tau 0.6 map1.nii map2.nii
    segtta metrics --pred mask.nii.gz --gt label.nii.gz --classes 2
    segtta report  --result runs/x/result.json --format csv --out runs/x/report.csv
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path
import sys

from . import augment, nifti
from .config import DEFAULT_SEED, load_config, load_manifest
from .core import (
    AUGMENTATION_KINDS, MAX_CLASSES, AugmentationSpec, LabelMask,
    _check_spacing, _check_writable, normalize_intensity,
)
from .errors import ConfigError, SegTTAError
from .fusion import DEFAULT_TAU, DEFAULT_VOTING, VOTING_MODES, FusionInput, fuse
from .metrics import evaluate
from .pipeline import (
    EventLog,
    RunResult,
    augmentation_rng,
    run_ablation,
    run_segtta,
    run_threshold_sweep,
)
from .report import FORMATS, emit_report, render


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out", help="output directory (masks, report, result, log)")
    p.add_argument("--tau", type=float, help="override the voting threshold")
    p.add_argument("--seed", type=int, help="override the random seed")
    p.add_argument("--jobs", type=int,
                   help="override the number of cases processed in parallel")
    p.add_argument("--format", choices=FORMATS, default="markdown",
                   help="report format (default markdown)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segtta",
        description="Training-free test-time-augmentation ensembling "
                    "for volumetric segmentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_options(sub.add_parser("run", help="full pipeline over a manifest"))
    _add_run_options(sub.add_parser("ablate", help="leave-one-augmentation-out"))
    sweep = sub.add_parser("sweep", help="fuse at several voting thresholds")
    _add_run_options(sweep)
    sweep.add_argument("--taus", required=True,
                       help="comma-separated thresholds, e.g. 0.3,0.6,0.9")

    aug = sub.add_parser("augment", help="apply one transform to a volume")
    aug.add_argument("--input", required=True)
    aug.add_argument("--output", required=True)
    aug.add_argument("--kind", required=True, choices=AUGMENTATION_KINDS)
    aug.add_argument("--sigma", type=float)
    aug.add_argument("--gamma", type=float)
    aug.add_argument("--alpha", type=float)
    aug.add_argument("--beta", type=float)
    aug.add_argument("--slice-axis", default="2",
                     help="0, 1, 2, or 'none' for full 3D blur")
    aug.add_argument("--seed", type=int, default=DEFAULT_SEED)
    aug.add_argument("--normalize", action="store_true",
                     help="normalize intensities to [0, 1] first")

    fz = sub.add_parser("fuse", help="fuse precomputed probability maps")
    fz.add_argument("maps", nargs="+", help="4D float32 NIfTI probability maps")
    fz.add_argument("--output", required=True, help="fused mask (uint8 NIfTI)")
    fz.add_argument("--mode", default=DEFAULT_VOTING, choices=VOTING_MODES)
    fz.add_argument("--tau", type=float, default=DEFAULT_TAU)

    met = sub.add_parser("metrics", help="score a mask against ground truth")
    met.add_argument("--pred", required=True)
    met.add_argument("--gt", required=True)
    met.add_argument("--classes", type=int,
                     help="class count (default: inferred from the masks)")

    rep = sub.add_parser("report", help="re-render a saved run result")
    rep.add_argument("--result", required=True, help="result.json from a run")
    rep.add_argument("--format", choices=FORMATS, default="markdown")
    rep.add_argument("--out", help="output file (default: stdout)")

    return parser


def _apply_overrides(config, args):
    overrides = {}
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    return replace(config, **overrides) if overrides else config


def _outputs(args) -> tuple[Path, Path, Path]:
    """The log, result and report files a run writes into ``--out``, in the
    order it writes them."""
    out = Path(args.out)
    return (out / "run.log.jsonl", out / "result.json",
            out / f"report.{'csv' if args.format == 'csv' else 'md'}")


def _cmd_run(args) -> int:
    if args.command == "sweep":
        try:
            taus = [float(t) for t in args.taus.split(",") if t.strip()]
        except ValueError as e:
            raise ConfigError(f"--taus: {e}") from e
    config = _apply_overrides(load_config(args.config), args)
    manifest = load_manifest(args.manifest)
    outputs = _outputs(args) if args.out else ()
    for path in outputs:
        _check_writable(path)
    log = EventLog(outputs[0] if outputs else None)
    try:
        if args.command == "run":
            result = run_segtta(config, manifest, out_dir=args.out, log=log)
        elif args.command == "ablate":
            result = run_ablation(config, manifest, out_dir=args.out, log=log)
        else:
            result = run_threshold_sweep(
                config, manifest, taus, out_dir=args.out, log=log
            )
    finally:
        log.close()
    if outputs:
        _, result_path, report_path = outputs
        result.save(result_path)
        emit_report(result, args.format, report_path)
        print(f"wrote {result_path} and {report_path.name}")
    else:
        print(render(result, args.format))
    for case_id, message in result.failures:
        print(f"FAILED {case_id}: {message}", file=sys.stderr)
    if result.per_case:
        return 0
    print("no case completed", file=sys.stderr)
    return 1


def _cmd_augment(args) -> int:
    try:
        axis = None if args.slice_axis.lower() == "none" else int(args.slice_axis)
    except ValueError as e:
        raise ConfigError(f"--slice-axis: {e}") from e
    spec = AugmentationSpec(
        kind=args.kind, sigma=args.sigma, gamma=args.gamma,
        alpha=args.alpha, beta=args.beta, slice_axis=axis,
    )
    _check_writable(args.output)
    volume = nifti.read_volume(args.input)
    if args.normalize:
        volume = normalize_intensity(volume)
    rng = augmentation_rng(args.seed, volume.vol_id, spec.label())
    out = augment.apply(spec, volume, rng)
    nifti.write_volume(out, args.output, datatype=16)
    print(f"wrote {args.output}")
    return 0


def _cmd_fuse(args) -> int:
    _check_writable(args.output)
    # The spacings are checked from the headers alone: a mismatch reads no
    # map data and writes no map file.
    headers = [nifti.read_header(p) for p in args.maps]
    for path, header in zip(args.maps[1:], headers[1:]):
        _check_spacing(header.spacing, headers[0].spacing,
                       f"map {path}", f"map {args.maps[0]}")
    maps = tuple(nifti.read_probability_map(p) for p in args.maps)
    mask = fuse(FusionInput(maps, mode=args.mode, tau=args.tau))
    nifti.write_label_mask(mask, headers[0].spacing, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_metrics(args) -> int:
    # Without --classes, read with the widest count, then count the labels.
    (pred_header, pred), (gt_header, gt) = (
        nifti._read_label_mask(path, MAX_CLASSES if args.classes is None else args.classes)
        for path in (args.pred, args.gt)
    )
    if args.classes is None:
        classes = max(int(pred.labels.max()), int(gt.labels.max()), 1) + 1
        pred, gt = LabelMask(pred.labels, classes), LabelMask(gt.labels, classes)
    _check_spacing(pred_header.spacing, gt_header.spacing,
                   "prediction", "ground truth")
    report = evaluate(pred, gt, gt_header.spacing)
    for c in sorted(report.per_class_iou):
        print(f"class {c}: IoU={report.per_class_iou[c]:.4f} "
              f"Dice={report.per_class_dice[c]:.4f}")
    print(f"mIoU={report.miou:.4f} mDice={report.mdice:.4f} "
          f"aIoU={report.aiou:.4f} aDice={report.adice:.4f}")
    if report.hd95_mm is None:
        print(f"HD95=undefined ({report.undefined_reason})")
    else:
        print(f"HD95={report.hd95_mm:.4f} mm")
    return 0


def _cmd_report(args) -> int:
    if not args.out:
        print(render(RunResult.load(args.result), args.format))
        return 0
    _check_writable(args.out)
    emit_report(RunResult.load(args.result), args.format, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "ablate": _cmd_run,
        "sweep": _cmd_run,
        "augment": _cmd_augment,
        "fuse": _cmd_fuse,
        "metrics": _cmd_metrics,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except SegTTAError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
