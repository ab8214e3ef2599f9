import gzip
import hashlib
import json
import logging
import re
import struct
import tracemalloc

import numpy as np
import pytest

from segtta import (
    MetricReport,
    ProbabilityMap,
    RunResult,
    Spacing,
    Volume,
    make_phantom,
    read_header,
    read_label_mask,
    read_volume,
    write_label_mask,
    write_phantom_dataset,
    write_probability_map,
    write_volume,
)
from segtta import BackendDescriptor, RunConfig, backends, nifti
from segtta.cli import _build_parser, main
from segtta.config import DEFAULT_SEED
from segtta.errors import IoFailure
from segtta.fusion import DEFAULT_TAU, DEFAULT_VOTING, FusionInput, fuse
from segtta.pipeline import EventLog

from conftest import IGNORED_FIELD_CASES


@pytest.fixture
def dataset_dir(tmp_path):
    write_phantom_dataset(tmp_path / "data", n_cases=3, dims=(14, 14, 12), seed=3)
    return tmp_path / "data"


@pytest.fixture
def config_path(tmp_path):
    config = {
        "backends": [
            {"kind": "noisy_oracle", "name": f"nb{i}", "confidence": 0.9,
             "jitter": 1, "flip_prob": 0.1}
            for i in range(3)
        ],
        "voting": "threshold_weighted",
        "tau": 0.6,
        "seed": 2024,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def tree_digests(root):
    """Every path under ``root``, with the sha256 of each file's bytes."""
    return {
        path.relative_to(root):
            hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
        for path in root.rglob("*")
    }


def written_run(out, dataset_dir, config_path):
    """The digests of a good run's outputs, written into ``out``."""
    code = run_cli(
        "run", "--config", config_path,
        "--manifest", dataset_dir / "manifest.json", "--out", out,
    )
    assert code == 0
    digests = tree_digests(out)
    assert {"result.json", "report.md", "run.log.jsonl"} <= {
        str(path) for path in digests}
    assert (out / "run.log.jsonl").stat().st_size > 0
    return digests


def test_every_default_is_its_constant():
    parser = _build_parser()
    augment = parser.parse_args(["augment", "--input", "i", "--output", "o",
                                 "--kind", "identity"])
    fused = parser.parse_args(["fuse", "--output", "o", "m"])
    config = RunConfig((BackendDescriptor("constant"),))
    fusion = FusionInput(())
    assert augment.seed == config.seed == DEFAULT_SEED
    assert fused.mode == config.voting == fusion.mode == DEFAULT_VOTING
    assert fused.tau == config.tau == fusion.tau == DEFAULT_TAU


class TestRun:
    def test_run_writes_outputs(self, dataset_dir, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json",
            "--out", out, "--format", "csv",
        )
        assert code == 0
        assert (out / "result.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "run.log.jsonl").exists()
        assert len(list((out / "masks").glob("*.nii.gz"))) == 3
        events = [json.loads(line)["event"]
                  for line in (out / "run.log.jsonl").read_text().splitlines()]
        assert "run_start" in events and "run_done" in events
        assert "prediction" in events

    def test_run_prints_report_without_out(self, dataset_dir, config_path, capsys):
        code = run_cli(
            "run", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json",
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "## Aggregate" in text
        assert "fused" in text

    def test_overrides_change_result_config(self, dataset_dir, config_path,
                                            tmp_path):
        out = tmp_path / "out"
        run_cli(
            "run", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json",
            "--out", out, "--tau", "0.8", "--seed", "7", "--jobs", "2",
        )
        saved = json.loads((out / "result.json").read_text())
        assert saved["config"]["tau"] == 0.8
        assert saved["config"]["seed"] == 7

    def test_bad_config_is_diagnosed(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"backends": [], "voting": "x"}))
        code = run_cli(
            "run", "--config", bad, "--manifest", dataset_dir / "manifest.json",
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_run_leaves_process_logging_alone(self, dataset_dir, tmp_path,
                                              talking_model):
        config = tmp_path / "external.json"
        config.write_text(json.dumps({
            "backends": [{"kind": "external", "name": "m", "command": talking_model}],
            "augmentations": [],
        }))
        logger = logging.getLogger("segtta.backends")
        level, handlers = logger.level, list(logger.handlers)
        logger.setLevel(logging.WARNING)
        try:
            out = tmp_path / "out"
            code = run_cli("run", "--config", config,
                           "--manifest", dataset_dir / "manifest.json", "--out", out)
            assert code == 0
            assert logger.level == logging.WARNING
            assert logger.handlers == handlers
        finally:
            logger.setLevel(level)
        events = [json.loads(line)
                  for line in (out / "run.log.jsonl").read_text().splitlines()]
        logged = [e for e in events if e["event"] == "log"]
        assert len(logged) == 3
        assert all(e["child_stdout"] == "segmenting (14, 14, 12)\n" for e in logged)

    @pytest.mark.parametrize("entry, field", [
        (5, "JSON object"),
        (["case000"], "JSON object"),
        ({"id": 3, "image": "a.nii", "classes": 2}, "'id'"),
        ({"id": "a", "image": ["a.nii"], "classes": 2}, "'image'"),
        ({"id": "a", "image": "a.nii", "label": 7, "classes": 2}, "'label'"),
        ({"id": "a", "image": "a.nii", "classes": [2]}, "'classes'"),
        ({"id": "a", "image": "a.nii", "classes": 2.9}, "'classes'"),
        ({"id": "a", "image": "a.nii", "classes": "2"}, "'classes'"),
        ({"id": "a", "image": "a.nii", "classes": True}, "'classes'"),
        *(({"id": bad, "image": "a.nii", "classes": 2}, "'id'")
          for bad in ("", ".", "..", "a/b", "../../escaped", "a\\b", "a\0b")),
    ])
    def test_malformed_manifest_is_diagnosed(self, config_path, tmp_path, capsys,
                                             entry, field):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        code = run_cli("run", "--config", config_path, "--manifest", manifest)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "case 0" in err and field in err

    @pytest.mark.parametrize("override, field", [
        ({"seed": "5"}, "seed"),
        ({"jobs": "2"}, "jobs"),
        ({"backends": [5]}, "backends"),
        ({"augmentations": [3]}, "augmentations"),
        ({"subset": [["a"]]}, "subset"),
        ({"include_baseline": "no"}, "include_baseline"),
        ({"backends": [{"kind": "oracle", "confidence": "0.9"}]}, "confidence"),
        ({"backends": [{"kind": "noisy_oracle", "jitter": 1.5}]}, "jitter"),
        ({"augmentations": [{"kind": "gaussian_blur", "sigma": "1"}]}, "sigma"),
    ])
    def test_config_field_of_wrong_type_is_diagnosed(
            self, dataset_dir, config_path, tmp_path, capsys, override, field):
        config = {**json.loads(config_path.read_text()), **override}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = run_cli(
            "run", "--config", bad, "--manifest", dataset_dir / "manifest.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(field) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, override, named", [
        ("run", {"subset": [["nbX", "baseline"]]}, '[["nbX", "baseline"]]'),
        ("run", {"subset": [["nb0", "baselin"]]}, '[["nb0", "baselin"]]'),
        ("run", {"subset": [[1, 2]]},
         "config field 'subset' must be a list of [backend, view] string pairs"),
        ("ablate", {"augmentations": [
            {"kind": "gamma_correction", "gamma": 0.8},
            {"kind": "gaussian_blur", "sigma": 1.0},
            {"kind": "gamma_correction", "gamma": 0.8}]},
         "augmentation labels must be unique, got ['gamma_correction(gamma=0.8)', "
         "'gaussian_blur(sigma=1.0,axis=2)', 'gamma_correction(gamma=0.8)']"),
        ("run", {"backends": [{"kind": "oracle", "ground_truth": "gt.nii"}]},
         "backend has unknown fields ['ground_truth']"),
    ], ids=["unknown-backend", "unknown-view", "numbers", "repeated-augmentation",
            "ground-truth-file"])
    def test_config_the_run_cannot_honour_is_diagnosed(
            self, dataset_dir, config_path, tmp_path, capsys, command, override, named):
        config = {**json.loads(config_path.read_text()), **override}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = run_cli(
            command, "--config", bad, "--manifest", dataset_dir / "manifest.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
    @pytest.mark.parametrize("override, named", [
        ({"include_baseline": False, "augmentations": []},
         "config has no view: 'include_baseline' is false"),
        ({"subset": []}, "config field 'subset' holds no pair"),
        ({"backends": [{"kind": "external", "name": "m", "command": "m {output}",
                        "timeout": 1e9}]},
         "timeout=1000000000.0 must be in (0, 2147483.647] seconds"),
    ], ids=["no-view", "empty-subset", "huge-timeout"])
    def test_config_rejected_at_load_writes_nothing(
            self, dataset_dir, config_path, tmp_path, capsys, command, override,
            named):
        config = {**json.loads(config_path.read_text()), **override}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = run_cli(
            command, "--config", bad, "--manifest", dataset_dir / "manifest.json",
            "--out", out, *(["--taus", "0.3,0.6"] if command == "sweep" else []),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("taus, named", [
        ("0.3,0.3000001,0.9", "got ['tau=0.3', 'tau=0.3', 'tau=0.9']"),
        ("0.6,0.6", "got ['tau=0.6', 'tau=0.6']"),
    ], ids=["close", "equal"])
    def test_sweep_taus_sharing_a_row_name_are_diagnosed(
            self, dataset_dir, config_path, tmp_path, capsys, taus, named):
        # Rejected into a directory a good run wrote, it leaves it as it was.
        out = tmp_path / "out"
        before = written_run(out, dataset_dir, config_path)
        code = run_cli(
            "sweep", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json", "--taus", taus,
            "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err
        assert "Traceback" not in err
        assert tree_digests(out) == before

    def test_ablation_of_one_augmentation_leaves_out_as_it_was(
            self, dataset_dir, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        before = written_run(out, dataset_dir, config_path)
        one = tmp_path / "one.json"
        one.write_text(json.dumps({
            **json.loads(config_path.read_text()),
            "augmentations": [{"kind": "gamma_correction", "gamma": 0.8}],
        }))
        code = run_cli(
            "ablate", "--config", one,
            "--manifest", dataset_dir / "manifest.json", "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ablation needs >= 2 augmentations, got 1")
        assert "Traceback" not in err
        assert tree_digests(out) == before

    @pytest.mark.parametrize("command", [
        ["run"], ["ablate"], ["sweep", "--taus", "0.3,0.6"],
        ["run", "--format", "csv"],
    ], ids=["run", "ablate", "sweep", "run-csv"])
    @pytest.mark.parametrize("blocker", ["out", "result.json", "report"])
    def test_unwritable_out_is_named_before_any_case_runs(
            self, dataset_dir, tmp_path, config_path, capsys, command, blocker):
        # --out a file, or its result or report path a directory: nothing
        # runs, so no mask and no log is written.
        out = tmp_path / "out"
        if blocker == "out":
            out.write_text("")
            named = f"cannot write {out / 'run.log.jsonl'}: {out} is not a directory"
        else:
            name = "report.csv" if "csv" in command else "report.md"
            blocked = out / (name if blocker == "report" else blocker)
            blocked.mkdir(parents=True)
            named = f"cannot write {blocked}: "
        before = tree_digests(tmp_path)
        code = run_cli(*command, "--config", config_path,
                       "--manifest", dataset_dir / "manifest.json", "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")
        assert tree_digests(tmp_path) == before

    @pytest.mark.parametrize("command, blocked, path", [
        (["run"], "masks", "masks/case000.nii.gz"),
        (["ablate"], "masks", "masks/case000.nii.gz"),
        (["sweep", "--taus", "0.3,0.6"], "masks", "masks/tau=0.3/case000.nii.gz"),
        (["sweep", "--taus", "0.3,0.6"], "masks/tau=0.6",
         "masks/tau=0.6/case000.nii.gz"),
        (["run"], "masks/case002.nii.gz", "masks/case002.nii.gz"),
    ], ids=["run", "ablate", "sweep", "sweep-tau", "run-mask-dir"])
    def test_unwritable_mask_is_named_before_any_case_runs(
            self, dataset_dir, tmp_path, config_path, capsys, monkeypatch,
            command, blocked, path):
        # A mask directory that is a regular file, or a mask path that is a
        # directory: no prediction is made and no log is written.
        out = tmp_path / "out"
        blocked, path = out / blocked, out / path
        if blocked == path:
            blocked.mkdir(parents=True)
            named = f"cannot write {path}: is a directory"
        else:
            blocked.parent.mkdir(parents=True, exist_ok=True)
            blocked.write_text("")
            named = f"cannot write {path}: {blocked} is not a directory"
        predicted, predict = [], backends.predict
        monkeypatch.setattr(backends, "predict", lambda *args, **kwargs: (
            predicted.append(args) or predict(*args, **kwargs)))
        before = tree_digests(tmp_path)
        code = run_cli(*command, "--config", config_path,
                       "--manifest", dataset_dir / "manifest.json", "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")
        assert predicted == []
        assert not (out / "run.log.jsonl").exists()
        assert tree_digests(tmp_path) == before

    def test_out_below_a_file_is_an_io_failure(self, dataset_dir, config_path,
                                               capsys):
        log = config_path / "out" / "run.log.jsonl"
        code = run_cli(
            "run", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json",
            "--out", config_path / "out",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {log}: ")
        with pytest.raises(IoFailure, match=re.escape(f"cannot write {log}: ")):
            EventLog(log).emit("run_start")

    @pytest.mark.parametrize("kind, backend, field", IGNORED_FIELD_CASES,
                             ids=[f"{k}-{f}" for k, _, f in IGNORED_FIELD_CASES])
    def test_backend_field_the_kind_ignores_is_diagnosed(
            self, dataset_dir, tmp_path, capsys, kind, backend, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"backends": [backend]}))
        code = run_cli(
            "run", "--config", bad, "--manifest", dataset_dir / "manifest.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"backend kind {kind!r} does not use [{field!r}]" in err
        assert "Traceback" not in err

    def test_command_without_output_is_a_config_error(self, dataset_dir, tmp_path,
                                                      capsys):
        # Once a run of 3 failed cases, each "produced no output file".
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"backends": [
            {"kind": "external", "name": "m", "command": "model {input}"}]}))
        out = tmp_path / "out"
        code = run_cli("run", "--config", bad,
                       "--manifest", dataset_dir / "manifest.json", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: external backend 'm' command has no {output}")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command, named", [
        ("run --config {missing} --manifest {manifest}", "{missing}"),
        ("run --config {config} --manifest {missing}", "{missing}"),
        ("report --result {missing}", "{missing}"),
        ("run --config {malformed} --manifest {manifest}", "{malformed}"),
        ("run --config {config} --manifest {malformed}", "{malformed}"),
        ("report --result {malformed}", "{malformed}"),
        ("sweep --config {config} --manifest {manifest} --taus 0.3,abc",
         "--taus"),
        ("augment --input {missing} --output {missing} --kind identity "
         "--slice-axis abc", "--slice-axis"),
        ("run --config {config} --manifest {manifest} --out {config}/out",
         "{config}/out"),
        ("run --config {config} --manifest {manifest} --out {blocked}",
         "{blocked}/masks"),
        ("run --config {number} --manifest {manifest}", "{number}"),
        ("run --config {string} --manifest {manifest}", "{string}"),
        ("run --config {config} --manifest {manifest} --out {taken}",
         "cannot write {taken}/result.json: "),
        ("sweep --config {config} --manifest {manifest} --taus ,", "taus []"),
        ("metrics --pred {label} --gt {label} --classes 0", "num_classes=0"),
    ], ids=["missing-config", "missing-manifest", "missing-result",
            "malformed-config", "malformed-manifest", "malformed-result",
            "bad-taus", "bad-slice-axis", "out-under-a-file",
            "masks-dir-a-file", "number-config", "string-config",
            "result-a-directory", "no-taus", "zero-classes"])
    def test_bad_input_file_or_flag_is_named(self, dataset_dir, config_path,
                                             tmp_path, capsys, command, named):
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"backends": [}')
        number, string = tmp_path / "number.json", tmp_path / "string.json"
        number.write_text("5")
        string.write_text('"abc"')
        blocked = tmp_path / "blocked"  # an output directory whose masks/ is a file
        blocked.mkdir()
        (blocked / "masks").write_text("")
        taken = tmp_path / "taken"  # an output directory whose result.json is a directory
        (taken / "result.json").mkdir(parents=True)
        paths = {
            "missing": tmp_path / "missing.json", "malformed": malformed,
            "number": number, "string": string, "blocked": blocked,
            "taken": taken, "label": dataset_dir / "case000_label.nii.gz",
            "config": config_path, "manifest": dataset_dir / "manifest.json",
        }
        code = main([arg.format(**paths) for arg in command.split()])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named.format(**paths) in err
        assert "Traceback" not in err

    def test_corrupt_header_fails_only_its_case(self, dataset_dir, config_path,
                                                tmp_path, capsys):
        image = dataset_dir / "case001.nii.gz"
        with gzip.open(image, "rb") as f:
            raw = bytearray(f.read())
        struct.pack_into("<f", raw, 108, float("inf"))  # vox_offset
        with gzip.open(image, "wb") as f:
            f.write(bytes(raw))
        out = tmp_path / "out"
        code = run_cli(
            "run", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json", "--out", out,
        )
        assert code == 0
        saved = json.loads((out / "result.json").read_text())
        assert sorted(saved["per_case"]) == ["case000", "case002"]
        assert [f[0] for f in saved["failures"]] == ["case001"]
        assert "vox_offset" in saved["failures"][0][1]
        assert "FAILED case001" in capsys.readouterr().err

    def test_corrupt_gzip_stream_fails_only_its_case(self, dataset_dir, config_path,
                                                     tmp_path, capsys):
        image = dataset_dir / "case001.nii.gz"
        raw = bytearray(image.read_bytes())
        for i in range(40, 60):  # inside the deflate stream
            raw[i] ^= 0xFF
        image.write_bytes(bytes(raw))
        out = tmp_path / "out"
        code = run_cli(
            "run", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json", "--out", out,
        )
        assert code == 0
        saved = json.loads((out / "result.json").read_text())
        assert sorted(saved["per_case"]) == ["case000", "case002"]
        [(case, reason)] = saved["failures"]
        assert case == "case001" and str(image) in reason
        events = [json.loads(line)
                  for line in (out / "run.log.jsonl").read_text().splitlines()]
        assert [e["error_type"] for e in events
                if e["event"] == "case_failed"] == ["IoFailure"]
        assert "Traceback" not in capsys.readouterr().err

    def test_class_count_past_label_dtype_is_diagnosed(self, dataset_dir,
                                                       tmp_path, capsys):
        entries = json.loads((dataset_dir / "manifest.json").read_text())
        for entry in entries:
            entry["classes"] = 300
            del entry["label"]
        manifest = dataset_dir / "many.json"
        manifest.write_text(json.dumps(entries))
        config = tmp_path / "constant.json"
        config.write_text(json.dumps({"backends": [{"kind": "constant"}]}))
        code = run_cli("run", "--config", config, "--manifest", manifest)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "num_classes=300" in err
        assert "Traceback" not in err


    def test_header_claiming_huge_volume_fails_only_its_case(
            self, dataset_dir, config_path, tmp_path, capsys):
        image = dataset_dir / "case001.nii.gz"
        with gzip.open(image, "rb") as f:
            raw = bytearray(f.read())
        struct.pack_into("<3h", raw, 42, 30000, 30000, 30000)  # dim[1:4]
        with gzip.open(image, "wb") as f:
            f.write(bytes(raw))
        out = tmp_path / "out"
        code = run_cli(
            "run", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json", "--out", out,
        )
        assert code == 0
        saved = json.loads((out / "result.json").read_text())
        assert sorted(saved["per_case"]) == ["case000", "case002"]
        [(case, reason)] = saved["failures"]
        assert case == "case001"
        assert reason.startswith("load: ") and "truncated" in reason


class TestAblateAndSweep:
    def test_ablate(self, dataset_dir, config_path, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "ablate", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json", "--out", out,
        )
        assert code == 0
        saved = json.loads((out / "result.json").read_text())
        assert saved["reference"] == "full"
        assert sum(v.startswith("w/o ") for v in saved["variants"]) == 4

    def test_sweep(self, dataset_dir, config_path, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--config", config_path,
            "--manifest", dataset_dir / "manifest.json",
            "--taus", "0.3,0.6,0.9", "--out", out,
        )
        assert code == 0
        saved = json.loads((out / "result.json").read_text())
        assert saved["variants"] == ["tau=0.3", "tau=0.6", "tau=0.9"]
        for name in saved["variants"]:
            assert len(list((out / "masks" / name).glob("*.nii.gz"))) == 3


class TestAugmentCommand:
    def test_blur_roundtrip(self, tmp_path, rng):
        volume = Volume(rng.random((10, 10, 8)), Spacing(1, 1, 1), vol_id="v")
        src = tmp_path / "v.nii.gz"
        write_volume(volume, src, datatype=16)
        dst = tmp_path / "blurred.nii.gz"
        code = run_cli("augment", "--input", src, "--output", dst,
                       "--kind", "gaussian_blur", "--sigma", "1.0")
        assert code == 0
        out = read_volume(dst)
        assert out.dims == volume.dims
        assert out.data.std() < volume.data.std()

    def test_identity_kind(self, tmp_path, rng):
        volume = Volume(rng.random((6, 6, 6)).astype(np.float32),
                        Spacing(1, 1, 1), vol_id="v")
        src = tmp_path / "v.nii"
        write_volume(volume, src, datatype=16)
        dst = tmp_path / "same.nii"
        run_cli("augment", "--input", src, "--output", dst, "--kind", "identity")
        np.testing.assert_array_equal(read_volume(dst).data, volume.data)

    def test_flag_the_kind_does_not_use_is_rejected(self, tmp_path, rng, capsys):
        volume = Volume(rng.random((6, 6, 6)), Spacing(1, 1, 1), vol_id="v")
        src = tmp_path / "v.nii"
        write_volume(volume, src, datatype=16)
        code = run_cli("augment", "--input", src, "--output", tmp_path / "o.nii",
                       "--kind", "gamma_correction", "--gamma", "0.8",
                       "--sigma", "2")
        assert code == 1
        assert "['sigma']" in capsys.readouterr().err

    def test_slice_axis_only_for_the_blur(self, tmp_path, rng, capsys):
        # The default --slice-axis 2 is every kind's default; another value
        # names a field that only the blur reads.
        volume = Volume(rng.random((6, 6, 6)), Spacing(1, 1, 1), vol_id="v")
        src = tmp_path / "v.nii"
        write_volume(volume, src, datatype=16)
        flags = {"identity": [], "gaussian_blur": ["--sigma", "1.0"],
                 "gaussian_noise": ["--sigma", "0.05"],
                 "gamma_correction": ["--gamma", "0.8"],
                 "contrast_enhancement": ["--alpha", "1.3"]}
        for kind, params in flags.items():
            assert run_cli("augment", "--input", src, "--output", tmp_path / "o.nii",
                           "--kind", kind, *params) == 0
        capsys.readouterr()
        code = run_cli("augment", "--input", src, "--output", tmp_path / "o.nii",
                       "--kind", "gamma_correction", "--gamma", "0.8",
                       "--slice-axis", "none")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "['slice_axis']" in err
        assert "Traceback" not in err

    def test_noise_is_seeded(self, tmp_path, rng):
        volume = Volume(rng.random((6, 6, 6)), Spacing(1, 1, 1), vol_id="v")
        src = tmp_path / "v.nii"
        write_volume(volume, src, datatype=16)
        a, b = tmp_path / "a.nii", tmp_path / "b.nii"
        for dst in (a, b):
            run_cli("augment", "--input", src, "--output", dst,
                    "--kind", "gaussian_noise", "--sigma", "0.05",
                    "--seed", "2024")
        assert a.read_bytes() == b.read_bytes()


class TestFuseCommand:
    def test_fuse_maps(self, tmp_path):
        probs_a = np.zeros((4, 4, 2, 2))
        probs_a[..., 1] = 0.8
        probs_a[..., 0] = 0.2
        probs_b = np.zeros((4, 4, 2, 2))
        probs_b[..., 1] = 0.7
        probs_b[..., 0] = 0.3
        pa, pb = tmp_path / "a.nii", tmp_path / "b.nii"
        spacing = Spacing(0.8, 0.8, 2.5)
        write_probability_map(ProbabilityMap(probs_a), pa, spacing)
        write_probability_map(ProbabilityMap(probs_b), pb, spacing)
        dst = tmp_path / "mask.nii.gz"
        code = run_cli("fuse", "--output", dst, "--mode", "threshold_weighted",
                       "--tau", "0.6", pa, pb)
        assert code == 0
        mask = read_label_mask(dst, 2)
        assert (mask.labels == 1).all()
        # The mask keeps the scan's voxel size, as float32 pixdim holds it.
        assert read_header(dst).spacing.as_tuple() == tuple(
            float(np.float32(v)) for v in spacing.as_tuple())


    def test_each_file_is_read_once(self, tmp_path, monkeypatch):
        paths = [tmp_path / "a.nii", tmp_path / "b.nii"]
        for path in paths:
            write_probability_map(ProbabilityMap(np.full((4, 4, 2, 2), 0.5)),
                                  path, Spacing(1.0, 1.0, 2.0))
        # Every header first, for the spacings; then each file whole, once.
        reads = []
        read_bytes = nifti._read_bytes
        monkeypatch.setattr(nifti, "_read_bytes", lambda path, size=-1: (
            reads.append((str(path), size)) or read_bytes(path, size)))
        assert run_cli("fuse", "--output", tmp_path / "mask.nii", *paths) == 0
        assert reads == [(str(p), nifti.HEADER_SIZE) for p in paths] + [
            (str(p), -1) for p in paths]

    @pytest.mark.parametrize("blocker", ["directory", "parent-file"])
    def test_bad_output_is_named_before_any_map_is_read(
            self, tmp_path, monkeypatch, capsys, blocker):
        path = tmp_path / "m.nii"
        write_probability_map(ProbabilityMap(np.full((4, 4, 2, 2), 0.5)), path,
                              Spacing(1.0, 1.0, 2.0))
        if blocker == "directory":
            output = tmp_path / "adir"
            output.mkdir()
            named = f"cannot write {output}: is a directory"
        else:
            output = path / "sub" / "mask.nii"
            named = f"cannot write {output}: {path} is not a directory"
        reads = []
        read = nifti.read_probability_map
        monkeypatch.setattr(nifti, "read_probability_map",
                            lambda p: reads.append(p) or read(p))
        assert run_cli("fuse", "--output", output, path) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not reads

    def test_maps_stay_on_disk(self, tmp_path, monkeypatch):
        # Ten 64x64x48x2 float32 maps take 15.7 MB in memory; each is held in
        # a file under SEGTTA_TMPDIR, removed once the mask is written, and
        # the mask is that of the maps held in memory.
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setenv("SEGTTA_TMPDIR", str(spill))
        gen = np.random.default_rng(3)
        dims, spacing = (64, 64, 48), Spacing(1.0, 1.0, 2.0)
        maps, paths = [], []
        for i in range(10):
            fg = gen.random(dims).astype(np.float32)
            maps.append(ProbabilityMap(np.stack([1 - fg, fg], axis=-1), f"m{i}.nii"))
            paths.append(tmp_path / f"m{i}.nii")
            write_probability_map(maps[-1], paths[-1], spacing)
        want = fuse(FusionInput(tuple(maps)))
        maps = None
        tracemalloc.start()
        try:
            assert run_cli("fuse", "--output", tmp_path / "mask.nii", *paths) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert not any(spill.iterdir())
        assert read_label_mask(tmp_path / "mask.nii", 2).labels.tobytes() == (
            want.labels.tobytes())

    def test_missing_map_directory_is_an_io_failure(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m.nii"
        write_probability_map(ProbabilityMap(np.full((4, 4, 2, 2), 0.5)), path,
                              Spacing(1.0, 1.0, 2.0))
        missing = tmp_path / "missing"
        monkeypatch.setenv("SEGTTA_TMPDIR", str(missing))
        assert run_cli("fuse", "--output", tmp_path / "mask.nii", path) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot create a map file in {missing}: ")
        assert not (tmp_path / "mask.nii").exists()

    def test_spacing_mismatch_is_named(self, tmp_path, capsys):
        probs = np.full((4, 4, 2, 2), 0.5)
        pa, pb = tmp_path / "a.nii", tmp_path / "b.nii"
        write_probability_map(ProbabilityMap(probs), pa, Spacing(1.0, 1.0, 1.0))
        write_probability_map(ProbabilityMap(probs), pb, Spacing(2.0, 2.0, 5.0))
        dst = tmp_path / "mask.nii.gz"
        code = run_cli("fuse", "--output", dst, pa, pb)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(2.0, 2.0, 5.0)" in err and "(1.0, 1.0, 1.0)" in err
        assert not dst.exists()

    def test_spacing_mismatch_reads_no_map(self, tmp_path, monkeypatch, capsys):
        # The headers decide it: no map's data is read and no map file is
        # made under SEGTTA_TMPDIR.
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setenv("SEGTTA_TMPDIR", str(spill))
        probs = np.full((4, 4, 2, 2), 0.5)
        pa, pb = tmp_path / "a.nii", tmp_path / "b.nii.gz"
        write_probability_map(ProbabilityMap(probs), pa, Spacing(1.0, 1.0, 1.0))
        write_probability_map(ProbabilityMap(probs), pb, Spacing(1.0, 1.0, 3.0))
        reads = []
        read = nifti._read
        monkeypatch.setattr(nifti, "_read", lambda p, *a: reads.append(p) or read(p, *a))
        dst = tmp_path / "mask.nii.gz"
        assert run_cli("fuse", "--output", dst, pa, pb) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(1.0, 1.0, 3.0)" in err
        assert not reads
        assert not any(spill.iterdir())
        assert not dst.exists()

    def test_bad_tau_is_named_in_every_mode(self, tmp_path, monkeypatch, capsys):
        # majority decides with no tau, but the tau given must still be one;
        # the maps read so far leave no file under SEGTTA_TMPDIR.
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setenv("SEGTTA_TMPDIR", str(spill))
        path = tmp_path / "m.nii"
        write_probability_map(ProbabilityMap(np.full((4, 4, 2, 2), 0.5)), path,
                              Spacing(1.0, 1.0, 2.0))
        dst = tmp_path / "mask.nii.gz"
        assert run_cli("fuse", "--output", dst, "--mode", "majority",
                       "--tau", "1.5", path, path) == 1
        assert capsys.readouterr().err == "error: tau=1.5 must be in (0, 1]\n"
        assert not dst.exists()
        assert not any(spill.iterdir())


class TestMetricsCommand:
    def test_score_two_masks(self, tmp_path, capsys):
        volume, gt = make_phantom(dims=(12, 12, 10), seed=1)
        gt_path = tmp_path / "gt.nii.gz"
        write_label_mask(gt, volume.spacing, gt_path)
        code = run_cli("metrics", "--pred", gt_path, "--gt", gt_path,
                       "--classes", "2")
        assert code == 0
        out = capsys.readouterr().out
        assert "mIoU=1.0000" in out
        assert "HD95=0.0000 mm" in out

    def test_each_file_is_read_once(self, tmp_path, capsys, monkeypatch):
        volume, gt = make_phantom(dims=(12, 12, 10), num_classes=3, seed=1)
        gt_path = tmp_path / "gt.nii.gz"
        write_label_mask(gt, volume.spacing, gt_path)
        reads = []
        read_bytes = nifti._read_bytes
        monkeypatch.setattr(nifti, "_read_bytes",
                            lambda path, *a: reads.append(path) or read_bytes(path, *a))
        code = run_cli("metrics", "--pred", gt_path, "--gt", gt_path)
        assert code == 0
        assert len(reads) == 2
        out = capsys.readouterr().out
        assert "class 2:" in out and "mIoU=1.0000" in out

    def test_spacing_mismatch_is_named(self, tmp_path, capsys):
        volume, gt = make_phantom(dims=(12, 12, 10), seed=1)
        pred_path, gt_path = tmp_path / "pred.nii.gz", tmp_path / "gt.nii.gz"
        write_label_mask(gt, Spacing(1.0, 1.0, 2.0), pred_path)
        write_label_mask(gt, Spacing(1.0, 1.0, 3.0), gt_path)
        code = run_cli("metrics", "--pred", pred_path, "--gt", gt_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(1.0, 1.0, 2.0)" in err and "(1.0, 1.0, 3.0)" in err


class TestReportCommand:
    def test_rerender_matches_run_report(self, dataset_dir, config_path,
                                         tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("run", "--config", config_path,
                "--manifest", dataset_dir / "manifest.json",
                "--out", out, "--format", "markdown")
        capsys.readouterr()
        code = run_cli("report", "--result", out / "result.json",
                       "--format", "markdown")
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            (out / "report.md").read_text().strip()
        )

    @staticmethod
    def saved_result() -> dict:
        report = MetricReport({1: 0.5}, {1: 2 / 3}, 0.5, 2 / 3, 0.5, 2 / 3,
                              hd95_mm=1.5)
        return RunResult(
            dataset="d", num_classes=2, variants=("fused",), reference=None,
            per_case={"c1": {"fused": report}},
            fg_volume={"c1": {"fused": 10.0}},
            aggregates={"fused": {"aiou": 0.5, "hd95": 1.5, "n_cases": 1}},
            failures=(("c2", "load: truncated"),), config={}, timings={},
        ).to_dict()

    @pytest.mark.parametrize("mutate, named", [
        (lambda d: {}, "no 'dataset' field"),
        (lambda d: {"per_case": 5}, "no 'dataset' field"),
        (lambda d: [d], "result must be object, got list"),
        (lambda d: {**d, "per_case": 5}, "field 'per_case' must be object"),
        (lambda d: {**d, "variants": [["fused"]]}, "variant must be string"),
        (lambda d: {**d, "failures": [3]}, "failure must be list"),
        (lambda d: {**d, "failures": [["c2"]]}, "is not [case, reason]"),
        (lambda d: {**d, "fg_volume": {"c1": {"fused": [1]}}},
         "fg_volume['c1']['fused'] must be number"),
        (lambda d: {**d, "aggregates": {"fused": {"aiou": "x"}}},
         "aggregates['fused']['aiou'] must be number or null"),
        (lambda d: {**d, "aggregates": {"fused": {"aiou": 10 ** 400}}},
         "got integer beyond 2**53"),
        (lambda d: {**d, "per_case": {"c1": {"fused": {}}}},
         "per_case['c1']['fused'] has no 'per_class_iou' field"),
        (lambda d: {**d, "per_case": {"c1": [1]}},
         "per_case['c1'] must be object"),
        (lambda d: {**d, "diagnostics": {}, "typo": 1},
         "result has unknown fields ['diagnostics', 'typo']"),
        (lambda d: {**d, "per_case": {"c1": {"fused": {
            **d["per_case"]["c1"]["fused"], "typo": 1}}}},
         "per_case['c1']['fused'] has unknown fields ['typo']"),
    ], ids=["empty", "per-case-only", "list", "per-case-number",
            "variant-list", "failure-number", "failure-short", "fg-list",
            "aggregate-string", "aggregate-huge", "report-empty", "row-list",
            "result-unknown-key", "report-unknown-key"])
    def test_malformed_result_is_named(self, tmp_path, capsys, mutate, named):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(self.saved_result()))
        assert run_cli("report", "--result", path, "--format", "csv") == 0
        path.write_text(json.dumps(mutate(self.saved_result())))
        capsys.readouterr()
        assert run_cli("report", "--result", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err
        assert "Traceback" not in err


class TestOutputsAreCheckedFirst:
    """Every command that writes checks each file it writes by one rule
    before it runs a case or reads a volume, map or result."""

    @pytest.mark.parametrize("blocker", ["below-a-file", "directory"])
    @pytest.mark.parametrize("command", ["run", "ablate", "sweep", "augment",
                                         "fuse", "report"])
    def test_unwritable_output_is_named_before_anything_is_read(
            self, dataset_dir, config_path, tmp_path, monkeypatch, capsys,
            command, blocker):
        map_path = tmp_path / "m.nii"
        write_probability_map(ProbabilityMap(np.full((4, 4, 2, 2), 0.5)),
                              map_path, Spacing(1.0, 1.0, 2.0))
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps(TestReportCommand.saved_result()))
        # config_path is a regular file. A run checks its log first; the
        # other commands write one file.
        output = (tmp_path if blocker == "directory" else config_path) / "o"
        first = output / "run.log.jsonl" if command in ("run", "ablate", "sweep") \
            else output
        if blocker == "directory":
            first.mkdir(parents=True)
            named = f"cannot write {first}: is a directory"
        else:
            named = f"cannot write {first}: {config_path} is not a directory"
        reads = []
        read_bytes = nifti._read_bytes
        monkeypatch.setattr(nifti, "_read_bytes", lambda path, size=-1: (
            reads.append(path) or read_bytes(path, size)))
        load = RunResult.load
        monkeypatch.setattr(RunResult, "load", lambda path: reads.append(path) or load(path))
        run = ["--config", config_path, "--manifest", dataset_dir / "manifest.json",
               "--out", output]
        argv = {
            "run": ["run", *run],
            "ablate": ["ablate", *run],
            "sweep": ["sweep", *run, "--taus", "0.3,0.6"],
            "augment": ["augment", "--input", dataset_dir / "case000.nii.gz",
                        "--output", output, "--kind", "identity"],
            "fuse": ["fuse", "--output", output, map_path],
            "report": ["report", "--result", result_path, "--out", output],
        }[command]
        before = tree_digests(tmp_path)
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not reads
        assert tree_digests(tmp_path) == before
