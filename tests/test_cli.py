import json

import numpy as np
import pytest

from segtta import (
    ProbabilityMap,
    Spacing,
    Volume,
    make_phantom,
    read_label_mask,
    read_volume,
    write_label_mask,
    write_phantom_dataset,
    write_probability_map,
    write_volume,
)
from segtta.cli import main


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

    @pytest.mark.parametrize("entry, field", [
        (5, "JSON object"),
        (["case000"], "JSON object"),
        ({"id": 3, "image": "a.nii", "classes": 2}, "'id'"),
        ({"id": "a", "image": ["a.nii"], "classes": 2}, "'image'"),
        ({"id": "a", "image": "a.nii", "label": 7, "classes": 2}, "'label'"),
        ({"id": "a", "image": "a.nii", "classes": [2]}, "'classes'"),
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
        write_probability_map(ProbabilityMap(probs_a), pa)
        write_probability_map(ProbabilityMap(probs_b), pb)
        dst = tmp_path / "mask.nii.gz"
        code = run_cli("fuse", "--output", dst, "--mode", "threshold_weighted",
                       "--tau", "0.6", pa, pb)
        assert code == 0
        mask = read_label_mask(dst, 2)
        assert (mask.labels == 1).all()


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
