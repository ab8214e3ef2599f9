from dataclasses import fields, replace
import functools
import hashlib
import json
import os
from pathlib import Path
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from segtta import (
    AugmentationSpec,
    BackendDescriptor,
    FusionInput,
    LabelMask,
    PredictionCache,
    ProbabilityMap,
    RunConfig,
    RunResult,
    Spacing,
    default_augmentations,
    fuse,
    load_manifest,
    read_label_mask,
    read_volume,
    render,
    run_ablation,
    run_segtta,
    run_threshold_sweep,
    write_label_mask,
    write_phantom_dataset,
    write_volume,
)
import segtta.augment
import segtta.backends
import segtta.cli
import segtta.core
import segtta.fusion
import segtta.metrics
import segtta.nifti
from segtta.errors import (
    ConfigError, InsufficientAugmentations, InvalidTau, InvalidVolume, IoFailure,
)
import segtta.pipeline
from segtta.pipeline import EventLog


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantoms")
    manifest_path = write_phantom_dataset(
        root, n_cases=4, dims=(18, 18, 14), num_classes=2, seed=42
    )
    return load_manifest(manifest_path)


def noisy_config(n_members=3, **overrides):
    members = tuple(
        BackendDescriptor("noisy_oracle", name=f"nb{i}", confidence=0.9,
                          jitter=1, flip_prob=0.1)
        for i in range(n_members)
    )
    defaults = dict(
        backends=members,
        augmentations=default_augmentations(),
        voting="threshold_weighted",
        tau=0.6,
        seed=2024,
        jobs=2,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


# An external model that counts its calls in the directory argv[4] and
# exits 1 on those listed in argv[3].
COUNTING_MODEL = """
import os
import sys
import numpy as np
from segtta import ProbabilityMap, read_volume, write_probability_map

call = len(os.listdir(sys.argv[4]))
open(os.path.join(sys.argv[4], str(call)), "w").close()
if str(call) in sys.argv[3].split(","):
    sys.exit(1)
volume = read_volume(sys.argv[1])
fg = (volume.data > 0.5)[..., None]
write_probability_map(ProbabilityMap(np.where(fg, [0.2, 0.8], [0.9, 0.1])), sys.argv[2],
                      volume.spacing)
"""


class TestRunSegtta:
    def test_perfect_oracle_passthrough(self, dataset):
        config = RunConfig(
            backends=(BackendDescriptor("oracle", name="o", confidence=1.0),),
            augmentations=(AugmentationSpec("identity"),),
            voting="threshold_weighted",
            tau=0.6,
        )
        result = run_segtta(config, dataset)
        assert not result.failures
        agg = result.aggregates["fused"]
        assert agg["aiou"] == 1.0
        assert agg["adice"] == 1.0
        assert agg["hd95"] == 0.0

    def test_duplicate_backends_match_single(self, dataset):
        base = RunConfig(
            backends=(BackendDescriptor("oracle", name="a", confidence=0.9),),
            augmentations=(),
            tau=0.6,
        )
        doubled = RunConfig(
            backends=(
                BackendDescriptor("oracle", name="a", confidence=0.9),
                BackendDescriptor("oracle", name="b", confidence=0.9),
            ),
            augmentations=(),
            tau=0.6,
        )
        r1 = run_segtta(base, dataset)
        r2 = run_segtta(doubled, dataset)
        for case_id in r1.per_case:
            a = r1.per_case[case_id]["fused"]
            b = r2.per_case[case_id]["fused"]
            assert a.aiou == b.aiou and a.hd95_mm == b.hd95_mm

    def test_variant_rows_present(self, dataset):
        result = run_segtta(noisy_config(), dataset)
        assert result.variants[0] == "baseline"
        assert result.variants[-1] == "fused"
        assert len(result.variants) == 2 + len(default_augmentations())
        for case_id, row in result.per_case.items():
            assert set(row) == set(result.variants)

    def test_ensemble_beats_mean_single_error(self, dataset):
        config = noisy_config(5)
        fused_err = 1.0 - run_segtta(config, dataset).aggregates["fused"]["aiou"]
        singles = []
        for member in config.backends:
            single = replace(config, backends=(member,), augmentations=())
            singles.append(
                1.0 - run_segtta(single, dataset).aggregates["fused"]["aiou"]
            )
        assert fused_err < np.mean(singles)

    def test_failure_isolation(self, dataset, tmp_path):
        manifest_path = tmp_path / "broken.json"
        manifest_path.write_text(
            '[{"id": "ok", "image": "%s", "label": "%s", "classes": 2},\n'
            ' {"id": "missing", "image": "nope.nii", "classes": 2}]'
            % (dataset.entries[0].image, dataset.entries[0].label)
        )
        manifest = load_manifest(manifest_path)
        path = tmp_path / "run.log.jsonl"
        log = EventLog(path)
        result = run_segtta(noisy_config(), manifest, log=log)
        log.close()
        assert len(result.failures) == 1
        assert result.failures[0][0] == "missing"
        assert list(result.per_case) == ["ok"]
        events = [json.loads(line) for line in path.read_text().splitlines()]
        (failed,) = [e for e in events if e["event"] == "case_failed"]
        assert (failed["case"], failed["error_type"]) == ("missing", "IoFailure")

    def test_non_finite_voxel_fails_only_its_case(self, dataset, tmp_path):
        # A float32 copy of case 0's image with one NaN voxel.
        entry = dataset.entries[0]
        nan_path = tmp_path / "nan.nii"
        write_volume(read_volume(entry.image), nan_path, datatype=16)
        raw = bytearray(nan_path.read_bytes())
        raw[352:356] = struct.pack("<f", float("nan"))
        nan_path.write_bytes(bytes(raw))
        with pytest.raises(InvalidVolume, match="NaN"):
            read_volume(nan_path)
        manifest_path = tmp_path / "nan.json"
        manifest_path.write_text(json.dumps([
            {"id": "ok", "image": entry.image, "label": entry.label, "classes": 2},
            {"id": "nan", "image": str(nan_path), "label": entry.label, "classes": 2},
        ]))
        path = tmp_path / "run.log.jsonl"
        log = EventLog(path)
        result = run_segtta(noisy_config(), load_manifest(manifest_path), log=log)
        log.close()
        assert list(result.per_case) == ["ok"]
        assert [case for case, _ in result.failures] == ["nan"]
        events = [json.loads(line) for line in path.read_text().splitlines()]
        (failed,) = [e for e in events if e["event"] == "case_failed"]
        assert (failed["case"], failed["error_type"]) == ("nan", "InvalidVolume")

    def test_undecodable_failing_backend_fails_only_its_cases(self, dataset, tmp_path):
        script = tmp_path / "model.py"
        script.write_text("import sys; sys.stderr.buffer.write(b'\\xff'); sys.exit(1)")
        config = RunConfig(
            backends=(BackendDescriptor(
                "external", name="m", command=f"{sys.executable} {script} {{output}}"),),
            augmentations=(),
        )
        manifest = replace(dataset, entries=dataset.entries[:2])
        path = tmp_path / "run.log.jsonl"
        log = EventLog(path)
        result = run_segtta(config, manifest, log=log)
        log.close()
        assert [case for case, _ in result.failures] == [
            e.case_id for e in manifest.entries]
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["error_type"] for e in events if e["event"] == "case_failed"] == [
            "ProcessFailure"] * 2

    def test_a_bug_is_not_a_failed_case(self, dataset, monkeypatch):
        def broken(volume):
            raise ValueError("not an input error")

        monkeypatch.setattr(segtta.pipeline, "normalize_intensity", broken)
        with pytest.raises(ValueError, match="not an input error"):
            run_segtta(noisy_config(), dataset)

    def test_label_geometry_must_match_its_image(self, dataset, tmp_path):
        # One image, three labels: case a's spacing is off by 50%, case b's
        # by 2e-6 (inside the tolerance), case c's dims by one slice.
        entry = dataset.entries[0]
        mask = read_label_mask(entry.label, 2)
        write_label_mask(mask, Spacing(1.5, 1.0, 1.0), tmp_path / "a.nii.gz")
        write_label_mask(mask, Spacing(1.0, 1.0 + 2e-6, 1.0), tmp_path / "b.nii.gz")
        small = LabelMask(np.asarray(mask.labels)[1:], 2)
        write_label_mask(small, Spacing(1.0, 1.0, 1.0), tmp_path / "c.nii.gz")
        manifest_path = tmp_path / "geometry.json"
        manifest_path.write_text(json.dumps([
            {"id": case_id, "image": entry.image,
             "label": str(tmp_path / f"{case_id}.nii.gz"), "classes": 2}
            for case_id in ("a", "b", "c")
        ]))
        config = RunConfig(
            backends=(BackendDescriptor("oracle", name="o", confidence=0.9),),
            augmentations=(),
        )
        path = tmp_path / "run.log.jsonl"
        log = EventLog(path)
        result = run_segtta(config, load_manifest(manifest_path), log=log)
        log.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(e["case"], e["error_type"]) for e in events
                if e["event"] == "case_failed"] == [
            ("a", "DimensionMismatch"), ("c", "DimensionMismatch")]
        assert list(result.per_case) == ["b"]
        (a, reason_a), (c, reason_c) = result.failures
        assert (a, c) == ("a", "c")
        assert reason_a == (
            "load: label spacing (1.5, 1.0, 1.0) != image spacing (1.0, 1.0, 1.0)"
        )
        assert reason_c.startswith("load: label dims (17, 18, 14) != image dims")

    def test_failures_in_manifest_order_with_first_reason(self, dataset, tmp_path):
        manifest_path = tmp_path / "mixed.json"
        manifest_path.write_text(json.dumps([
            {"id": "a", "image": dataset.entries[0].image, "classes": 2},
            {"id": "b", "image": "nope.nii", "classes": 2},
            {"id": "c", "image": dataset.entries[1].image,
             "label": dataset.entries[1].label, "classes": 2},
        ]))
        manifest = load_manifest(manifest_path)
        results = []
        for jobs in (1, 4):
            config = RunConfig(
                backends=(BackendDescriptor("oracle", name="o", confidence=0.9),),
                augmentations=default_augmentations(),
                jobs=jobs,
            )
            results.append(run_segtta(config, manifest))
        result = results[0]
        assert [f[0] for f in result.failures] == ["a", "b"]
        # The oracle needs ground truth; case a has none, so its first
        # prediction in source-tag order fails.
        assert result.failures[0][1].startswith("o|baseline: ")
        assert result.failures[1][1].startswith("load: ")
        assert list(result.per_case) == ["c"]
        assert results[1].failures == result.failures
        assert render(results[1], "markdown") == render(result, "markdown")

    def test_maps_live_only_while_their_case_runs(self, dataset, monkeypatch):
        # A case holds its maps until it has fused them, and no longer.
        config = noisy_config(jobs=1)
        per_case = len(config.backends) * (1 + len(config.augmentations))
        refs = {}  # case id -> weak references to its maps
        predict = segtta.backends.predict

        def alive(other_than=None):
            return [case for case, case_refs in refs.items() if case != other_than
                    for ref in case_refs if ref() is not None]

        def tracked(backend, volume, *args, **kwargs):
            # When a case predicts, no map of an earlier case is alive.
            assert not alive(other_than=volume.vol_id)
            pmap = predict(backend, volume, *args, **kwargs)
            refs.setdefault(volume.vol_id, []).append(weakref.ref(pmap))
            return pmap

        def no_hashing(*args, **kwargs):
            raise AssertionError("a run without a cache hashed a volume")

        monkeypatch.setattr(segtta.backends, "predict", tracked)
        monkeypatch.setattr(PredictionCache, "key", no_hashing)
        monkeypatch.setattr(PredictionCache, "_volume_hash", no_hashing)
        result = run_segtta(config, dataset)
        assert not result.failures
        assert len(result.per_case) == len(dataset.entries)
        assert list(refs) == [entry.case_id for entry in dataset.entries]
        assert all(len(case_refs) == per_case for case_refs in refs.values())
        assert not alive()

    @pytest.mark.parametrize(
        ("experiment", "refused"),
        [("run", False), ("ablate", False), ("run", True), ("ablate", True)],
        ids=["run", "ablate", "run-refused", "ablate-refused"],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_view_alive_at_each_prediction(self, dataset, monkeypatch,
                                               experiment, jobs, refused):
        # A case builds each view just before its predictions and drops it
        # before building the next, also once a backend has refused its
        # baseline view and the later views are built only to settle the
        # failure's reason. Members that read voxels make every view built.
        monkeypatch.setattr(segtta.backends, "reads_voxels", lambda backend: True)
        config = noisy_config(jobs=jobs)
        failing = dataset.entries[1].case_id if refused else None
        views = {}  # case id -> weak references to its augmented views
        lock = threading.Lock()
        apply, predict = segtta.augment.apply, segtta.backends.predict

        def alive(case_id):
            with lock:
                return sum(ref() is not None for ref in views.get(case_id, []))

        def tracked_apply(spec, volume, rng):
            assert alive(volume.vol_id) == 0
            view = apply(spec, volume, rng)
            with lock:
                views.setdefault(volume.vol_id, []).append(weakref.ref(view))
            return view

        def tracked_predict(backend, volume, *args, source_tag, **kwargs):
            assert alive(volume.vol_id) <= 1
            if volume.vol_id == failing and source_tag == "nb1|baseline":
                raise InvalidVolume(f"refused {source_tag}")
            return predict(backend, volume, *args, source_tag=source_tag, **kwargs)

        monkeypatch.setattr(segtta.augment, "apply", tracked_apply)
        monkeypatch.setattr(segtta.backends, "predict", tracked_predict)
        run = run_segtta if experiment == "run" else run_ablation
        result = run(config, dataset)
        assert list(result.failures) == (
            [(failing, "nb1|baseline: refused nb1|baseline")] if refused else [])
        assert sorted(views) == sorted(entry.case_id for entry in dataset.entries)
        assert all(len(refs) == len(config.augmentations) for refs in views.values())
        assert not any(alive(case_id) for case_id in views)

    @pytest.mark.parametrize("include_baseline", [True, False])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_reason_is_the_smallest_failing_tag(
        self, dataset, monkeypatch, include_baseline, jobs
    ):
        # Backend "b" comes first in the config and "a" sorts first in tag
        # order, so the first prediction to fail is often not the one with
        # the smallest tag. Every view is built before a prediction counts:
        # a view that a member reads and that cannot be built fails the case
        # as a load. Members that read voxels make every view built.
        monkeypatch.setattr(segtta.backends, "reads_voxels", lambda backend: True)
        gamma, contrast, blur, noise = (
            spec.label() for spec in default_augmentations())
        failing = {  # case -> (failing (backend, view) pairs, unbuildable view)
            "case000": ({("b", "baseline"), ("a", noise)}, None),
            "case001": ({("b", noise), ("a", gamma)}, None),
            "case002": ({("b", gamma)}, contrast),
            "case003": (set(), None),
        }
        assert sorted(failing) == [entry.case_id for entry in dataset.entries]
        config = noisy_config(jobs=jobs, include_baseline=include_baseline)
        config = replace(config, backends=tuple(
            replace(config.backends[0], name=name) for name in ("b", "a")))
        apply, predict = segtta.augment.apply, segtta.backends.predict

        def unbuildable(spec, volume, rng):
            if spec.label() == failing[volume.vol_id][1]:
                raise InvalidVolume(f"cannot build {spec.label()}")
            return apply(spec, volume, rng)

        def refusing(backend, volume, *args, source_tag, **kwargs):
            if tuple(source_tag.split("|")) in failing[volume.vol_id][0]:
                raise InvalidVolume(f"refused {source_tag}")
            return predict(backend, volume, *args, source_tag=source_tag, **kwargs)

        monkeypatch.setattr(segtta.augment, "apply", unbuildable)
        monkeypatch.setattr(segtta.backends, "predict", refusing)
        result = run_segtta(config, dataset)
        views = ["baseline"] if include_baseline else []
        views += [gamma, contrast, blur, noise]
        want = []
        for case_id, (pairs, view) in failing.items():
            tags = sorted(f"{b}|{v}" for b, v in pairs if v in views)
            if view is not None:
                want.append((case_id, f"load: cannot build {view}"))
            elif tags:
                want.append((case_id, f"{tags[0]}: refused {tags[0]}"))
        assert list(result.failures) == want
        assert list(result.per_case) == ["case003"]

    def test_each_file_read_once(self, dataset, monkeypatch):
        # The label's spacing comes from the header of its one read.
        reads = []
        read_bytes = segtta.nifti._read_bytes

        def counted(path, *args):
            reads.append(str(path))
            return read_bytes(path, *args)

        monkeypatch.setattr(segtta.nifti, "_read_bytes", counted)
        result = run_segtta(noisy_config(jobs=1), dataset)
        assert len(result.per_case) == len(dataset.entries)
        assert sorted(reads) == sorted(
            str(path) for entry in dataset.entries for path in (entry.image, entry.label)
        )

    def test_each_ground_truth_jittered_once_per_direction(self, dataset, monkeypatch):
        # 5 jitter-1 members x 5 views draw 25 directions per case; there
        # are two directions, so at most two jitter steps per case.
        calls = []
        for name in ("_dilate_step", "_erode_step"):
            step = getattr(segtta.backends, name)
            monkeypatch.setattr(segtta.backends, name,
                                lambda labels, step=step: calls.append(1) or step(labels))
        result = run_segtta(noisy_config(5), dataset)
        assert len(result.per_case) == len(dataset.entries)
        assert 0 < len(calls) <= 2 * len(dataset.entries)

    def test_subset_filter(self, dataset):
        config = noisy_config(2, subset=(("nb0", "baseline"),))
        result = run_segtta(config, dataset)
        # Only the baseline view of nb0 participates anywhere.
        for row in result.fg_volume.values():
            assert set(row) == {"baseline", "fused"}
        for case_id in result.per_case:
            a = result.per_case[case_id]["baseline"]
            b = result.per_case[case_id]["fused"]
            assert a.aiou == b.aiou

    def test_report_leaves_out_a_view_without_pairs(self, dataset):
        # Only baseline has a pair, so no case has a row of any augmented
        # view, though the result still lists those variants.
        config = noisy_config(2, subset=(("nb0", "baseline"),))
        result = run_segtta(config, dataset)
        assert len(result.variants) == 6
        rows = render(result, "csv").splitlines()[1:]
        variants = [row.split(",")[2] for row in rows]
        assert variants == ["baseline", "fused"] * (1 + len(dataset.entries))

    def test_missing_exchange_dir_fails_each_case(self, dataset, tmp_path, monkeypatch):
        missing = tmp_path / "missing"
        monkeypatch.setenv("SEGTTA_TMPDIR", str(missing))
        config = RunConfig(
            backends=(BackendDescriptor("external", name="m", command="true {output}"),),
            augmentations=(AugmentationSpec("gamma_correction", gamma=0.8),),
        )
        result = run_segtta(config, dataset)
        assert not result.per_case
        assert [case for case, _ in result.failures] == [
            e.case_id for e in dataset.entries]
        for _, reason in result.failures:
            assert reason.startswith(
                f"m|baseline: cannot create a work directory in {missing}: ")

    @staticmethod
    def spilling_run(dataset, tmp_path, monkeypatch, failing=()):
        """Run an external member on case000's baseline and gamma views with
        ``SEGTTA_TMPDIR`` set to an empty directory, which is returned
        beside the result. The member exits 1 on the calls numbered in
        ``failing`` (0 is the baseline view's), and each fusion records the
        files of the directory as it starts."""
        spill_dir, calls = tmp_path / "spill", tmp_path / "calls"
        spill_dir.mkdir()
        calls.mkdir()
        monkeypatch.setenv("SEGTTA_TMPDIR", str(spill_dir))
        script = tmp_path / "model.py"
        script.write_text(COUNTING_MODEL)
        failing = ",".join(map(str, failing)) or "-"
        config = RunConfig(
            backends=(BackendDescriptor(
                "external", name="m",
                command=f"{sys.executable} {script} {{input}} {{output}} {failing} {calls}"),),
            augmentations=(AugmentationSpec("gamma_correction", gamma=0.8),),
            jobs=1,
        )
        fusing, fuse_groups = [], segtta.pipeline.fuse_groups

        def recorded(*args):
            fusing.append(sorted(p.name for p in spill_dir.iterdir()))
            return fuse_groups(*args)

        monkeypatch.setattr(segtta.pipeline, "fuse_groups", recorded)
        result = run_segtta(config, replace(dataset, entries=dataset.entries[:1]))
        return result, spill_dir, fusing

    @pytest.mark.parametrize("failing", [(), (1,)], ids=["good", "gamma-view-fails"])
    def test_map_files_are_gone_when_the_run_returns(
            self, dataset, tmp_path, monkeypatch, child_imports_segtta, failing):
        # The failing view's prediction comes after the baseline map was
        # written to its file.
        result, spill_dir, fusing = self.spilling_run(
            dataset, tmp_path, monkeypatch, failing)
        if failing:
            assert not fusing and not result.per_case
            [(case, reason)] = result.failures
            assert reason.startswith("m|gamma_correction(gamma=0.8): ")
        else:
            [names] = fusing
            assert len(names) == 2 and all(n.endswith(".map") for n in names)
            assert list(result.per_case) == ["case000"]
        assert not any(spill_dir.iterdir())

    def test_unwritable_map_file_fails_its_pair(self, dataset, tmp_path, monkeypatch,
                                                child_imports_segtta, read_only_map_files):
        result, spill_dir, fusing = self.spilling_run(dataset, tmp_path, monkeypatch)
        assert not fusing and not result.per_case
        [(case, reason)] = result.failures
        assert reason.startswith(
            f"m|baseline: cannot write map file {read_only_map_files[0]}: ")
        assert not any(spill_dir.iterdir())

    def test_map_file_gone_before_fusion_fails_the_case(
            self, dataset, tmp_path, monkeypatch, child_imports_segtta):
        fuse_groups = segtta.pipeline.fuse_groups

        def unlinking(mode, maps, *args):
            for path in Path(os.environ["SEGTTA_TMPDIR"]).iterdir():
                path.unlink()
            return fuse_groups(mode, maps, *args)

        monkeypatch.setattr(segtta.pipeline, "fuse_groups", unlinking)
        result, spill_dir, fusing = self.spilling_run(dataset, tmp_path, monkeypatch)
        assert len(fusing) == 1 and not result.per_case
        [(case, reason)] = result.failures
        assert reason.startswith(f"fuse: cannot read map file {spill_dir}")

    def test_result_save_into_a_directory_is_an_io_failure(self, dataset, tmp_path):
        result = run_segtta(noisy_config(1), replace(dataset, entries=dataset.entries[:1]))
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {tmp_path}: ")):
            result.save(tmp_path)

    @pytest.mark.parametrize("n_cases", [0, 1])
    def test_phantom_dataset_below_a_file_is_an_io_failure(self, tmp_path, n_cases):
        # With no case, the manifest is the first file written.
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {blocker / 'data'}/")):
            write_phantom_dataset(blocker / "data", n_cases=n_cases, dims=(6, 6, 4))

    def test_result_fields_are_the_dataclass_fields(self):
        # to_dict and from_dict read these tables, so a field missing from
        # one would silently leave the documents.
        for cls, table in ((RunResult, segtta.pipeline._RESULT_FIELDS),
                           (segtta.metrics.MetricReport, segtta.metrics._REPORT_FIELDS)):
            assert list(table) == [f.name for f in fields(cls)]

    def test_masks_written(self, dataset, tmp_path):
        out = tmp_path / "out"
        result = run_segtta(noisy_config(), dataset, out_dir=out)
        for case_id in result.per_case:
            assert (out / "masks" / f"{case_id}.nii.gz").exists()

    def test_aggregates_match_per_case_means(self, dataset):
        result = run_segtta(noisy_config(), dataset)
        for variant, agg in result.aggregates.items():
            reports = [row[variant] for row in result.per_case.values()]
            assert agg["aiou"] == pytest.approx(
                np.mean([r.aiou for r in reports]), abs=1e-9
            )
            defined = [r.hd95_mm for r in reports if r.hd95_mm is not None]
            if defined:
                assert agg["hd95"] == pytest.approx(np.mean(defined), abs=1e-9)
            assert agg["hd95_undefined"] == len(reports) - len(defined)

    def test_result_json_roundtrip(self, dataset, tmp_path):
        result = run_segtta(noisy_config(), dataset)
        path = tmp_path / "result.json"
        result.save(path)
        again = RunResult.load(path)
        assert again.variants == result.variants
        assert again.aggregates == result.aggregates
        for case_id, row in result.per_case.items():
            for variant, report in row.items():
                assert again.per_case[case_id][variant] == report

    def test_numpy_seed_saves_as_the_plain_seeds_result(self, dataset, tmp_path):
        # The config keeps np.int64(5) as the int 5: the run is seed 5's and
        # its result is JSON.
        one = replace(dataset, entries=dataset.entries[:1])
        docs = []
        for seed in (np.int64(5), 5):
            path = tmp_path / f"{type(seed).__name__}.json"
            run_segtta(noisy_config(1, seed=seed), one).save(path)
            again = RunResult.load(path)
            assert again.config["seed"] == 5
            docs.append({k: v for k, v in again.to_dict().items() if k != "timings"})
        assert docs[0] == docs[1]

    def test_traced_scoring_spans_per_row(self, tmp_path, monkeypatch):
        # The benchmark tracer wraps these names where the program looks
        # them up. One case's rows share one ground-truth transform, and
        # their surfaces' crops go through one stacked transform; the
        # pipeline calls neither one-row function.
        calls = {"evaluate": 0, "hd95": 0, "distance_transform": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(segtta.pipeline, "evaluate")
        counted(segtta.metrics, "hd95")
        counted(segtta.metrics, "distance_transform")
        manifest = load_manifest(write_phantom_dataset(
            tmp_path, n_cases=1, dims=(18, 18, 14), num_classes=2, seed=42
        ))
        result = run_segtta(noisy_config(jobs=1), manifest)
        rows = len(result.variants)
        assert rows == 6 and len(result.per_case) == 1
        assert calls == {"evaluate": 0, "hd95": 0, "distance_transform": 2}


class TestViewsBuilt:
    """A view is built only when a member among its pairs reads voxels."""

    @staticmethod
    def counted_apply(monkeypatch):
        """Patch ``augment.apply`` to record each (case, view) it builds."""
        built, lock = [], threading.Lock()
        apply = segtta.augment.apply

        def counted(spec, volume, rng):
            with lock:
                built.append((volume.vol_id, spec.label()))
            return apply(spec, volume, rng)

        monkeypatch.setattr(segtta.augment, "apply", counted)
        return built

    @pytest.mark.parametrize("name", ["run", "ablate", "sweep"])
    def test_synthetic_members_build_no_view(self, dataset, monkeypatch, tmp_path,
                                             name):
        built = self.counted_apply(monkeypatch)
        run = {"run": run_segtta, "ablate": run_ablation,
               "sweep": functools.partial(run_threshold_sweep, taus=[0.3, 0.6, 0.9])}
        log = EventLog(tmp_path / "run.log.jsonl")
        result = run[name](noisy_config(), dataset, log=log)
        log.close()
        assert len(result.per_case) == len(dataset.entries)
        assert built == []
        events = [json.loads(line)
                  for line in (tmp_path / "run.log.jsonl").read_text().splitlines()]
        done = [e for e in events if e["event"] == "case_done"]
        assert len(done) == len(dataset.entries)
        assert all(e["views_built"] == [] for e in done)

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("name", ["run", "ablate", "sweep"])
    def test_outputs_equal_every_view_built(self, tmp_path, monkeypatch, name, jobs):
        # Masks, report.csv and result.json without its timings are the
        # bytes of the same run with every view built.
        manifest_path = write_phantom_dataset(
            tmp_path / "data", n_cases=3, dims=(12, 12, 10), seed=8)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(noisy_config(jobs=jobs).to_dict()))

        def outputs(out):
            code = segtta.cli.main([
                name, "--config", str(config_path), "--manifest", str(manifest_path),
                "--out", str(out), "--format", "csv",
                *(["--taus", "0.3,0.6,0.9"] if name == "sweep" else []),
            ])
            assert code == 0
            files = {str(path.relative_to(out)): path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()
                     and path.name != "run.log.jsonl"}
            result = json.loads(files.pop("result.json"))
            del result["timings"]
            return files, result

        skipped = outputs(tmp_path / "skipped")
        monkeypatch.setattr(segtta.backends, "reads_voxels", lambda backend: True)
        built = outputs(tmp_path / "built")
        assert "report.csv" in skipped[0]
        assert any(path.endswith(".nii.gz") for path in skipped[0])
        assert skipped == built

    def test_only_a_view_an_external_member_reads_is_built(
            self, dataset, monkeypatch, tmp_path, talking_model):
        views = noisy_config().views
        noise = views[-1]
        config = RunConfig(
            backends=(
                BackendDescriptor("noisy_oracle", name="nb", confidence=0.9,
                                  jitter=1, flip_prob=0.1),
                BackendDescriptor("external", name="m", command=talking_model),
            ),
            augmentations=default_augmentations(),
            subset=tuple(("nb", view) for view in views) + (("m", noise),),
            jobs=2,
        )
        manifest = replace(dataset, entries=dataset.entries[:2])
        built = self.counted_apply(monkeypatch)
        log = EventLog(tmp_path / "run.log.jsonl")
        result = run_segtta(config, manifest, log=log)
        log.close()
        assert not result.failures
        cases = [entry.case_id for entry in manifest.entries]
        assert sorted(built) == [(case_id, noise) for case_id in cases]
        events = [json.loads(line)
                  for line in (tmp_path / "run.log.jsonl").read_text().splitlines()]
        done = {e["case"]: e["views_built"] for e in events if e["event"] == "case_done"}
        assert done == {case_id: [noise] for case_id in cases}

    @pytest.mark.parametrize("reader", [None, "external"])
    def test_unbuildable_view_fails_a_case_only_when_read(
            self, dataset, monkeypatch, talking_model, reader):
        views = noisy_config().views
        blur = views[3]
        config = noisy_config(n_members=1, jobs=1)
        if reader is not None:
            config = replace(
                config,
                backends=config.backends + (
                    BackendDescriptor("external", name="m", command=talking_model),),
                subset=tuple(("nb0", view) for view in views) + (("m", blur),),
            )
        failing = dataset.entries[1].case_id
        apply = segtta.augment.apply

        def unbuildable(spec, volume, rng):
            if volume.vol_id == failing and spec.label() == blur:
                raise InvalidVolume(f"cannot build {spec.label()}")
            return apply(spec, volume, rng)

        monkeypatch.setattr(segtta.augment, "apply", unbuildable)
        manifest = replace(dataset, entries=dataset.entries[:2])
        result = run_segtta(config, manifest)
        if reader is None:
            assert result.failures == ()
            assert len(result.per_case) == 2
        else:
            assert list(result.failures) == [(failing, f"load: cannot build {blur}")]
            assert list(result.per_case) == [dataset.entries[0].case_id]

    def test_shared_cache_counts_as_with_every_view_built(self, dataset, monkeypatch):
        # The first experiment computes every (case, backend, view) once;
        # the sweep and the ablation after it reuse all of them.
        def counts():
            cache = PredictionCache()
            config = noisy_config()
            run_segtta(config, dataset, cache=cache)
            run_threshold_sweep(config, dataset, [0.3, 0.6, 0.9], cache=cache)
            run_ablation(config, dataset, cache=cache)
            return cache.hits, cache.misses

        predictions = len(dataset.entries) * 3 * len(noisy_config().views)
        assert counts() == (2 * predictions, predictions)
        monkeypatch.setattr(segtta.backends, "reads_voxels", lambda backend: True)
        assert counts() == (2 * predictions, predictions)

    def test_volume_hash_reads_the_voxels_in_place(self, rng):
        volume = segtta.core.Volume(rng.random((5, 6, 7)), Spacing(0.5, 1.0, 2.0), "v")
        h = hashlib.sha256()
        h.update(b"v")
        h.update(repr(((5, 6, 7), (0.5, 1.0, 2.0))).encode())
        h.update(volume.data.tobytes())
        assert PredictionCache._volume_hash(volume) == h.hexdigest()


class TestDeterminism:
    def test_jobs_do_not_change_results(self, dataset, tmp_path):
        outputs = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            result = run_segtta(noisy_config(jobs=jobs), dataset, out_dir=out)
            masks = {
                p.name: p.read_bytes() for p in sorted((out / "masks").iterdir())
            }
            outputs.append((result.aggregates, masks))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_repeat_run_identical(self, dataset):
        a = run_segtta(noisy_config(), dataset)
        b = run_segtta(noisy_config(), dataset)
        assert a.aggregates == b.aggregates


class TestAblation:
    def test_row_count(self, dataset):
        result = run_ablation(noisy_config(), dataset)
        # baseline + full + one "w/o" row per augmentation
        assert len(result.variants) == 2 + len(default_augmentations())
        assert result.reference == "full"
        assert result.variants[0] == "baseline"
        assert result.variants[1] == "full"
        assert all(v.startswith("w/o ") for v in result.variants[2:])

    def test_requires_two_augmentations(self, dataset):
        config = noisy_config(augmentations=(AugmentationSpec("identity"),))
        with pytest.raises(InsufficientAugmentations):
            run_ablation(config, dataset)

    def test_cache_transparency(self, dataset):
        """Ablation rows equal independent from-scratch runs of each variant."""
        config = noisy_config()
        cache = PredictionCache()
        ablation = run_ablation(config, dataset, cache=cache)
        # Every (case, backend, view) prediction is computed exactly once.
        views = 1 + len(config.augmentations)
        assert cache.hits == 0
        assert cache.misses == len(dataset.entries) * len(config.backends) * views
        for i, spec in enumerate(config.augmentations):
            reduced = replace(
                config,
                augmentations=tuple(
                    s for j, s in enumerate(config.augmentations) if j != i
                ),
            )
            scratch = run_segtta(reduced, dataset)  # fresh cache
            variant = f"w/o {spec.label()}"
            for case_id in scratch.per_case:
                assert (
                    ablation.per_case[case_id][variant]
                    == scratch.per_case[case_id]["fused"]
                )

    def test_each_case_hashed_once(self, dataset, monkeypatch):
        # A case's normalized volume is hashed once for the cache, not once
        # per view or backend.
        config = noisy_config(n_members=5)
        views = 1 + len(config.augmentations)
        hashed = []
        volume_hash = PredictionCache._volume_hash

        def counted(v):
            hashed.append(v.vol_id)
            return volume_hash(v)

        monkeypatch.setattr(PredictionCache, "_volume_hash", staticmethod(counted))
        cache = PredictionCache()
        run_ablation(config, dataset, cache=cache)
        assert sorted(hashed) == [entry.case_id for entry in dataset.entries]
        assert cache.misses == len(dataset.entries) * views * len(config.backends)

    def test_each_case_prepared_and_row_scored_once(self, dataset, monkeypatch):
        # Members that read voxels make every view built.
        monkeypatch.setattr(segtta.backends, "reads_voxels", lambda backend: True)
        calls = {"evaluate": 0, "apply": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        evaluate = segtta.metrics.CaseScorer.evaluate

        def rows_scored(scorer, masks):
            calls["evaluate"] += len(masks)
            return evaluate(scorer, masks)

        monkeypatch.setattr(segtta.metrics.CaseScorer, "evaluate", rows_scored)
        monkeypatch.setattr(segtta.augment, "apply",
                            counted("apply", segtta.augment.apply))
        config = noisy_config()
        result = run_ablation(config, dataset)
        cases = len(dataset.entries)
        augmentations = len(config.augmentations)
        assert len(result.per_case) == cases
        assert calls["evaluate"] == cases * (2 + augmentations)
        assert calls["apply"] == cases * augmentations

    def test_full_row_matches_plain_run(self, dataset):
        config = noisy_config()
        ablation = run_ablation(config, dataset)
        plain = run_segtta(config, dataset)
        for case_id in plain.per_case:
            assert (
                ablation.per_case[case_id]["full"]
                == plain.per_case[case_id]["fused"]
            )


class TestSweep:
    def test_foreground_volume_non_increasing(self, dataset):
        taus = [0.3, 0.6, 0.9]
        result = run_threshold_sweep(noisy_config(), dataset, taus)
        for case_id, row in result.fg_volume.items():
            volumes = [row[f"tau={t:g}"] for t in taus]
            assert volumes[0] >= volumes[1] >= volumes[2]

    def test_single_tau_equals_run(self, dataset):
        config = noisy_config(tau=0.45)
        sweep = run_threshold_sweep(config, dataset, [0.45])
        plain = run_segtta(config, dataset)
        for case_id in plain.per_case:
            assert (
                sweep.per_case[case_id]["tau=0.45"]
                == plain.per_case[case_id]["fused"]
            )

    def test_cache_reuse_across_sweeps(self, dataset):
        cache = PredictionCache()
        run_threshold_sweep(noisy_config(), dataset, [0.3, 0.6, 0.9], cache=cache)
        # Predictions are collected once per (case, backend, view), then the
        # three thresholds fuse the same set: no hits needed the first time.
        assert cache.hits == 0
        first_misses = cache.misses
        run_threshold_sweep(noisy_config(), dataset, [0.2, 0.8], cache=cache)
        assert cache.misses == first_misses
        assert cache.hits == first_misses

    def test_reference_prefers_default_tau(self, dataset):
        result = run_threshold_sweep(noisy_config(), dataset, [0.3, 0.6])
        assert result.reference == "tau=0.6"
        result = run_threshold_sweep(noisy_config(), dataset, [0.3, 0.9])
        assert result.reference == "tau=0.3"

    def test_invalid_tau(self, dataset):
        with pytest.raises(InvalidTau):
            run_threshold_sweep(noisy_config(), dataset, [0.5, 1.5])

    def test_no_tau_is_a_config_error(self, dataset):
        with pytest.raises(ConfigError, match=re.escape("sweep taus [] hold no threshold")):
            run_threshold_sweep(noisy_config(), dataset, [])

    @pytest.mark.parametrize("taus, named", [
        ([0.3, 0.3000001, 0.9], "taus [0.3, 0.3000001, 0.9] must name distinct "
                                "rows, got ['tau=0.3', 'tau=0.3', 'tau=0.9']"),
        ([0.6, 0.6], "taus [0.6, 0.6] must name distinct rows"),
    ], ids=["close", "equal"])
    def test_taus_must_name_distinct_rows(self, dataset, taus, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            run_threshold_sweep(noisy_config(), dataset, taus)


class TestStreamingVotes:
    """Each map is counted once per slab into per-view-set votes."""

    @staticmethod
    def three_class_config(voting):
        views = ["baseline"] + [s.label() for s in default_augmentations()]
        members = tuple(
            BackendDescriptor("noisy_oracle", name=name, confidence=0.8,
                              jitter=1, flip_prob=0.15)
            for name in ("zz", "aa", "mm")  # tag order is not config order
        )
        subset = tuple(
            (b, v) for b in ("zz", "aa", "mm") for v in views
            if not (b == "aa" and v in views[3:]) and (b, v) != ("mm", "baseline")
        )
        return noisy_config(backends=members, voting=voting, subset=subset,
                            tau=0.5, jobs=1), views

    @pytest.mark.parametrize("voting", ["majority", "confidence_weighted",
                                        "threshold_weighted"])
    def test_rows_equal_fuse_of_the_same_maps(self, tmp_path, monkeypatch, voting):
        # 3 slabs, the last of 2 planes.
        dims = (66, 32, 32)
        assert [b - a for a, b in segtta.core.slabs(dims)] == [32, 32, 2]
        manifest = load_manifest(write_phantom_dataset(
            tmp_path, n_cases=2, dims=dims, num_classes=3, seed=9
        ))
        config, views = self.three_class_config(voting)
        maps, masks = {}, []
        predict = segtta.backends.predict
        fg = segtta.pipeline.foreground_volume

        def recorded(backend, volume, *args, source_tag, **kwargs):
            pmap = predict(backend, volume, *args, source_tag=source_tag, **kwargs)
            maps[volume.vol_id, source_tag] = pmap
            return pmap

        def row_mask(mask, spacing):
            masks.append(mask)
            return fg(mask, spacing)

        monkeypatch.setattr(segtta.backends, "predict", recorded)
        monkeypatch.setattr(segtta.pipeline, "foreground_volume", row_mask)
        runs = (
            run_segtta(config, manifest),
            run_ablation(config, manifest),
            run_threshold_sweep(config, manifest, [0.34, 0.5, 0.8]),
        )
        expected = []
        for result in runs:
            assert not result.failures
            for entry in manifest.entries:
                for name in result.variants:
                    if name in views:
                        row_views = {name}
                    elif name.startswith("w/o "):
                        row_views = set(views) - {name[4:]}
                    else:
                        row_views = set(views)
                    tau = float(name[4:]) if name.startswith("tau=") else config.tau
                    fused = tuple(
                        pmap for (case, tag), pmap in maps.items()
                        if case == entry.case_id and tag.split("|")[1] in row_views
                    )
                    expected.append(fuse(FusionInput(fused, mode=voting, tau=tau)))
        assert len(masks) == len(expected) == 2 * (6 + 6 + 3)
        for got, want in zip(masks, expected):
            assert got.labels.tobytes() == want.labels.tobytes()

    def test_sweep_counts_each_map_once(self, dataset, monkeypatch):
        # Fusion reads each map's slab once, whatever the number of taus:
        # count the slabs of values formed, and of row-table labels read,
        # by the thread that is fusing. The noisy members' maps are
        # row-table maps, so fusion reads their labels and forms no values.
        monkeypatch.setattr(segtta.core, "SLAB_VOXELS", 5 * 18 * 14)
        slabs = len(segtta.core.slabs((18, 18, 14)))
        assert slabs == 4
        formed, read, fusing = [], [], set()
        slab, fuse_groups = ProbabilityMap.slab, segtta.pipeline.fuse_groups
        row_table = ProbabilityMap.row_table

        def counted(pmap, a, b):
            if threading.get_ident() in fusing:
                formed.append((a, b))
            return slab(pmap, a, b)

        class CountedLabels:
            def __init__(self, labels):
                self.labels = labels

            def __getitem__(self, rows):
                if threading.get_ident() in fusing:
                    read.append((rows.start, rows.stop))
                return self.labels[rows]

        def counted_rows(pmap):
            held = row_table.fget(pmap)
            return held and (held[0], CountedLabels(held[1]))

        def traced(*args):
            fusing.add(threading.get_ident())
            try:
                return fuse_groups(*args)
            finally:
                fusing.discard(threading.get_ident())

        monkeypatch.setattr(ProbabilityMap, "slab", counted)
        monkeypatch.setattr(ProbabilityMap, "row_table", property(counted_rows))
        monkeypatch.setattr(segtta.pipeline, "fuse_groups", traced)
        config = noisy_config()
        result = run_threshold_sweep(config, dataset, [0.3, 0.6, 0.9])
        assert len(result.per_case) == len(dataset.entries)
        views = 1 + len(config.augmentations)
        maps = len(dataset.entries) * len(config.backends) * views
        assert len(read) == maps * slabs and not formed

    @pytest.mark.parametrize("experiment", ["run", "ablate", "sweep"])
    def test_case_memory_is_votes_not_maps(self, tmp_path, experiment):
        # Holding a case's 25 maps (5 backends x 5 views) until its rows are
        # fused peaked near 30 map sizes; the votes of its 6 view sets (1 for
        # a sweep) take 1.5 map sizes each.
        manifest = load_manifest(write_phantom_dataset(
            tmp_path, n_cases=1, dims=(32, 32, 16), num_classes=2, seed=5
        ))
        config = noisy_config(5, jobs=1)
        run = {
            "run": lambda: run_segtta(config, manifest),
            "ablate": lambda: run_ablation(config, manifest),
            "sweep": lambda: run_threshold_sweep(config, manifest, [0.3, 0.6, 0.9]),
        }[experiment]
        run()  # first-call allocations (imports, caches) are not the case's
        one_map = 32 * 32 * 16 * 2 * 8
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.per_case) == 1
        assert peak < (10 if experiment == "sweep" else 20) * one_map

    @pytest.mark.parametrize("experiment", ["run", "ablate", "sweep"])
    def test_fusion_holds_one_slab_of_votes(self, tmp_path, monkeypatch, experiment):
        # At one plane per slab, this phantom spans 64 slabs. Fusing holds
        # one slab of votes per view set, and per row its mask (1 byte per
        # voxel, which its LabelMask holds without a copy); one float64
        # plane of the whole volume is 8 bytes per voxel, a dense float64
        # map 16. The case holds its maps as uint8 labels, not 25 dense
        # maps (400).
        dims = (64, 32, 32)
        voxels = 64 * 32 * 32
        monkeypatch.setattr(segtta.core, "SLAB_VOXELS", 32 * 32)
        assert len(segtta.core.slabs(dims)) == 64
        manifest = load_manifest(write_phantom_dataset(
            tmp_path, n_cases=1, dims=dims, num_classes=2, seed=5
        ))
        config = noisy_config(5, jobs=1)
        run = {
            "run": lambda: run_segtta(config, manifest),
            "ablate": lambda: run_ablation(config, manifest),
            "sweep": lambda: run_threshold_sweep(config, manifest, [0.3, 0.6, 0.9]),
        }[experiment]
        fusing = []
        fuse_groups = segtta.pipeline.fuse_groups

        def traced(mode, maps, keys, decisions):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            masks = fuse_groups(mode, maps, keys, decisions)
            _, peak = tracemalloc.get_traced_memory()
            fusing.append((peak - before, len(decisions)))
            return masks

        monkeypatch.setattr(segtta.pipeline, "fuse_groups", traced)
        run()  # first-call allocations (imports, caches) are not the case's
        fusing.clear()
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.per_case) == 1
        [(fuse_peak, rows)] = fusing
        assert rows == (3 if experiment == "sweep" else 6)
        # Measured 8.9 (6 rows) and 4.0 (3 rows) bytes per voxel; 14.4 and
        # 6.4 when each mask was copied and two slabs of votes overlapped.
        assert fuse_peak < (rows + 4) * voxels
        # Measured 41 to 44 bytes per voxel (65 to 68 with every view held
        # at once and whole-volume scratch in the distance transform): the
        # volume and one view (16), the maps' labels and the scoring.
        assert peak < 55 * voxels


class TestObservability:
    @pytest.mark.parametrize("platform, maxrss", [("darwin", 3 * 2 ** 30), ("linux", 3 * 2 ** 20)])
    def test_peak_rss_without_proc_status(self, monkeypatch, platform, maxrss):
        # Where /proc/self/status is missing, ru_maxrss is read in its
        # platform's unit: bytes on macOS, KiB on Linux.
        def no_status(*args, **kwargs):
            raise FileNotFoundError(args[0])

        monkeypatch.setattr(segtta.pipeline, "open", no_status, raising=False)
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(segtta.pipeline.resource, "getrusage",
                            lambda who: types.SimpleNamespace(ru_maxrss=maxrss))
        assert segtta.pipeline._peak_rss_mb() == 3072

    def test_stage_timings_reported_and_logged(self, dataset, tmp_path):
        path = tmp_path / "run.log.jsonl"
        log = EventLog(path)
        result = run_ablation(noisy_config(), dataset, log=log)
        log.close()
        stages = {"load_s", "predict_s", "fuse_s", "score_s", "write_s"}
        assert set(result.timings) == stages | {"wall_s", "peak_rss_mb"}
        assert all(v >= 0 for v in result.timings.values())
        assert result.timings["peak_rss_mb"] > 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        logged = {e["stage"]: e["seconds"] for e in events if e["event"] == "stage"}
        assert set(logged) == stages
        assert sum(e["event"] == "run_start" for e in events) == 1
        (done,) = [e for e in events if e["event"] == "run_done"]
        assert done["wall_s"] == round(result.timings["wall_s"], 6)
        assert done["peak_rss_mb"] == result.timings["peak_rss_mb"]
        # Each finished case carries its own stage seconds, which add up
        # to the stage totals within their rounding.
        cases = [e for e in events if e["event"] == "case_done"]
        assert sorted(e["case"] for e in cases) == sorted(
            entry.case_id for entry in dataset.entries)
        for stage in stages:
            assert all(e[stage] >= 0 for e in cases)
            assert sum(e[stage] for e in cases) == pytest.approx(
                logged[stage], abs=(len(cases) + 1) * 5e-7)

    def test_api_run_logs_external_child_output(self, dataset, tmp_path,
                                                talking_model):
        config = RunConfig(
            backends=(BackendDescriptor("external", name="m", command=talking_model),),
            augmentations=(AugmentationSpec("gamma_correction", gamma=0.8),),
            jobs=2,
        )
        manifest = replace(dataset, entries=dataset.entries[:2])
        path = tmp_path / "run.log.jsonl"
        log = EventLog(path)
        result = run_segtta(config, manifest, log=log)
        log.close()
        assert not result.failures
        events = [json.loads(line) for line in path.read_text().splitlines()]
        logged = [e for e in events if e["event"] == "log"]
        predictions = [e for e in events if e["event"] == "prediction"]
        assert len(predictions) == 4
        assert len(logged) == len(predictions)
        for e in logged:
            assert e["logger"] == "segtta.backends"
            assert e["message"].startswith("external backend m finished in ")
            assert e["child_stdout"] == "segmenting (18, 18, 14)\n"
            assert e["child_stderr"] == ""

    def test_event_log_threads(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(path)

        def writer(i):
            for j in range(200):
                log.emit("tick", thread=i, j=j, pad="x" * 50)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        log.close()
        log.emit("after_close")  # dropped, not an error
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 800
        assert {(r["thread"], r["j"]) for r in records} == {
            (i, j) for i in range(4) for j in range(200)
        }


#: Imports every segtta module and runs a 2-case phantom with the test-only
#: packages made unimportable, as a numpy-only install would have them.
_NUMPY_ONLY_RUN = """
import importlib, pkgutil, sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
import segtta
for module in pkgutil.iter_modules(segtta.__path__):
    importlib.import_module("segtta." + module.name)
manifest = segtta.load_manifest(segtta.write_phantom_dataset(
    sys.argv[1], n_cases=2, dims=(10, 10, 8), seed=1))
member = segtta.BackendDescriptor("noisy_oracle", name="n", confidence=0.9,
                                  jitter=1, flip_prob=0.1)
result = segtta.run_segtta(segtta.RunConfig(backends=(member,)), manifest)
print(len(result.per_case), len(result.failures))
"""


def test_runs_with_numpy_as_the_only_dependency(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_RUN, str(tmp_path / "data")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "0"]
