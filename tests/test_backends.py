import os
import shlex
import sys
import textwrap
import time

import numpy as np
import pytest

import segtta
from segtta import (
    BackendDescriptor,
    LabelMask,
    SeededRng,
    Spacing,
    Volume,
    make_phantom,
    predict,
    write_label_mask,
)
from segtta.errors import (
    DimensionMismatch,
    GroundTruthMissing,
    NotProbabilistic,
    ProcessFailure,
)


@pytest.fixture(autouse=True)
def child_imports_segtta(monkeypatch):
    """Model scripts run in child interpreters, which must import the same
    segtta as the tests, also when only pytest's own path setting finds it."""
    src = os.path.dirname(os.path.dirname(segtta.__file__))
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )


@pytest.fixture
def case(rng):
    return make_phantom(dims=(12, 12, 10), seed=5, vol_id="case")


def stream(name="s"):
    return SeededRng(2024, "predict", "case", name, "baseline")


class TestOracle:
    def test_full_confidence_matches_ground_truth(self, case):
        volume, gt = case
        out = predict(BackendDescriptor("oracle", name="o", confidence=1.0),
                      volume, 2, stream(), ground_truth=gt)
        np.testing.assert_array_equal(np.argmax(out.probs, axis=-1), gt.labels)
        assert out.probs.max() == 1.0

    def test_softened_confidence(self, case):
        volume, gt = case
        out = predict(BackendDescriptor("oracle", name="o", confidence=0.8),
                      volume, 2, stream(), ground_truth=gt)
        np.testing.assert_array_equal(np.argmax(out.probs, axis=-1), gt.labels)
        assert np.allclose(out.probs.max(axis=-1), 0.8)

    def test_ground_truth_from_file(self, case, tmp_path):
        volume, gt = case
        path = tmp_path / "gt.nii.gz"
        write_label_mask(gt, volume.spacing, path)
        backend = BackendDescriptor("oracle", name="o", ground_truth=str(path))
        out = predict(backend, volume, 2, stream())
        np.testing.assert_array_equal(np.argmax(out.probs, axis=-1), gt.labels)

    def test_missing_ground_truth(self, case):
        volume, _ = case
        with pytest.raises(GroundTruthMissing):
            predict(BackendDescriptor("oracle", name="o"), volume, 2, stream())

    def test_dims_mismatch(self, case):
        volume, _ = case
        other = LabelMask(np.zeros((4, 4, 4), dtype=np.uint8), 2)
        with pytest.raises(DimensionMismatch):
            predict(BackendDescriptor("oracle", name="o"), volume, 2, stream(),
                    ground_truth=other)

    def test_confidence_must_beat_uniform(self, case):
        volume, gt = case
        backend = BackendDescriptor("oracle", name="o", confidence=0.3)
        with pytest.raises(ValueError, match="confidence"):
            predict(backend, volume, 3, stream(), ground_truth=gt)


class TestNoisyOracle:
    def test_degenerate_noise_equals_oracle(self, case):
        volume, gt = case
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=0,
                                    flip_prob=0.0, confidence=0.9)
        out = predict(backend, volume, 2, stream(), ground_truth=gt)
        np.testing.assert_array_equal(np.argmax(out.probs, axis=-1), gt.labels)
        assert np.allclose(out.probs.max(axis=-1), 0.9)

    def test_deterministic_per_stream(self, case):
        volume, gt = case
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=1,
                                    flip_prob=0.2, confidence=0.9)
        a = predict(backend, volume, 2, stream(), ground_truth=gt)
        b = predict(backend, volume, 2, stream(), ground_truth=gt)
        np.testing.assert_array_equal(a.probs, b.probs)
        c = predict(backend, volume, 2, stream("other"), ground_truth=gt)
        assert not np.array_equal(a.probs, c.probs)

    def test_flip_rate_converges(self):
        volume, gt = make_phantom(dims=(48, 48, 48), seed=11, vol_id="big")
        p = 0.1
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=0,
                                    flip_prob=p, confidence=0.9)
        out = predict(backend, volume, 2, SeededRng(2024, "flip-rate"),
                      ground_truth=gt)
        disagree = (np.argmax(out.probs, axis=-1) != gt.labels).mean()
        n = 48**3
        se = np.sqrt(p * (1 - p) / n)
        assert abs(disagree - p) < 3 * se

    def test_jitter_moves_only_the_boundary(self, case):
        volume, gt = case
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=1,
                                    flip_prob=0.0, confidence=1.0)
        out = predict(backend, volume, 2, stream(), ground_truth=gt)
        pred = np.argmax(out.probs, axis=-1)
        fg = gt.labels > 0
        # Prediction is either a one-voxel dilation or erosion of the truth.
        changed = pred != gt.labels
        assert changed.any()
        grown = changed & ~fg
        shrunk = changed & fg
        assert not (grown.any() and shrunk.any())

    def test_flips_always_change_class(self, case):
        volume, gt = case
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=0,
                                    flip_prob=1.0, confidence=0.9)
        out = predict(backend, volume, 3, stream(), ground_truth=gt)
        pred = np.argmax(out.probs, axis=-1)
        assert (pred != gt.labels).all()


class TestConstant:
    def test_background_constant(self, case):
        volume, _ = case
        out = predict(BackendDescriptor("constant", name="c", constant_class=0),
                      volume, 2, stream())
        np.testing.assert_array_equal(np.argmax(out.probs, axis=-1), 0)
        assert out.probs[..., 0].min() == 1.0

    def test_class_out_of_range(self, case):
        volume, _ = case
        with pytest.raises(ValueError):
            predict(BackendDescriptor("constant", name="c", constant_class=5),
                    volume, 2, stream())


ECHO_BACKEND = textwrap.dedent(
    """
    import sys
    import numpy as np
    from segtta import read_volume, ProbabilityMap, write_probability_map

    inp, out, classes = sys.argv[1], sys.argv[2], int(sys.argv[3])
    volume = read_volume(inp)
    fg = (volume.data > 0.5)[..., None]
    probs = np.where(fg, [0.2, 0.8], [0.9, 0.1])
    write_probability_map(ProbabilityMap(probs), out)
    """
)


def script_command(tmp_path, body, name="backend.py"):
    path = tmp_path / name
    path.write_text(body)
    return f"{sys.executable} {path} {{input}} {{output}} {{classes}}"


def process_alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestExternalProcess:
    def test_round_trip_through_child(self, case, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGTTA_TMPDIR", str(tmp_path))
        volume, _ = case
        backend = BackendDescriptor(
            "external", name="x", command=script_command(tmp_path, ECHO_BACKEND),
            timeout=60.0,
        )
        out = predict(backend, volume, 2, stream(), source_tag="x|baseline")
        assert out.dims == volume.dims
        assert out.source_tag == "x|baseline"
        expected_fg = volume.data > 0.5
        np.testing.assert_array_equal(
            np.argmax(out.probs, axis=-1) == 1, expected_fg
        )
        # The exchange directory is cleaned up afterwards.
        assert not any(p.name.startswith("segtta-") for p in tmp_path.iterdir())

    def test_nonzero_exit(self, case, tmp_path):
        volume, _ = case
        cmd = script_command(tmp_path, "import sys; sys.exit(3)")
        backend = BackendDescriptor("external", name="x", command=cmd)
        with pytest.raises(ProcessFailure, match="exited with 3"):
            predict(backend, volume, 2, stream())

    def test_timeout(self, case, tmp_path):
        volume, _ = case
        cmd = script_command(tmp_path, "import time; time.sleep(30)")
        backend = BackendDescriptor("external", name="x", command=cmd, timeout=1.0)
        with pytest.raises(ProcessFailure, match="timed out"):
            predict(backend, volume, 2, stream())

    def test_timeout_kills_the_whole_process_group(self, case, tmp_path):
        volume, _ = case
        pid_file = tmp_path / "model.pid"
        cmd = f"sleep 30 & echo $! > {shlex.quote(str(pid_file))}; wait"
        backend = BackendDescriptor("external", name="x", command=cmd, timeout=1.0)
        with pytest.raises(ProcessFailure, match="timed out"):
            predict(backend, volume, 2, stream())
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 10.0
        while process_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process_alive(pid)

    def test_exchange_dir_with_space(self, case, tmp_path, monkeypatch):
        spaced = tmp_path / "exchange dir"
        spaced.mkdir()
        monkeypatch.setenv("SEGTTA_TMPDIR", str(spaced))
        volume, _ = case
        backend = BackendDescriptor(
            "external", name="x", command=script_command(tmp_path, ECHO_BACKEND),
            timeout=60.0,
        )
        out = predict(backend, volume, 2, stream())
        np.testing.assert_array_equal(
            np.argmax(out.probs, axis=-1) == 1, volume.data > 0.5
        )

    def test_missing_output(self, case, tmp_path):
        volume, _ = case
        cmd = script_command(tmp_path, "pass")
        backend = BackendDescriptor("external", name="x", command=cmd)
        with pytest.raises(ProcessFailure, match="no output"):
            predict(backend, volume, 2, stream())

    def test_malformed_output(self, case, tmp_path):
        volume, _ = case
        body = (
            "import sys\n"
            "open(sys.argv[2], 'wb').write(b'not a nifti at all' * 40)\n"
        )
        cmd = script_command(tmp_path, body)
        backend = BackendDescriptor("external", name="x", command=cmd)
        with pytest.raises(ProcessFailure, match="malformed"):
            predict(backend, volume, 2, stream())

    def test_non_probabilistic_output(self, case, tmp_path):
        volume, _ = case
        body = textwrap.dedent(
            """
            import sys
            import numpy as np
            from segtta import read_volume
            from segtta.nifti import _build_header, _write_file

            volume = read_volume(sys.argv[1])
            bad = np.full((*volume.dims, 2), 0.3, dtype=np.float32)
            header = _build_header((*volume.dims, 2), (1.0, 1.0, 1.0, 0.0), 16, "<")
            _write_file(sys.argv[2], header, bad)
            """
        )
        cmd = script_command(tmp_path, body)
        backend = BackendDescriptor("external", name="x", command=cmd)
        with pytest.raises(NotProbabilistic):
            predict(backend, volume, 2, stream())

    def test_wrong_class_count(self, case, tmp_path):
        volume, _ = case
        body = textwrap.dedent(
            """
            import sys
            import numpy as np
            from segtta import read_volume, ProbabilityMap, write_probability_map

            volume = read_volume(sys.argv[1])
            probs = np.full((*volume.dims, 4), 0.25)
            write_probability_map(ProbabilityMap(probs), sys.argv[2])
            """
        )
        cmd = script_command(tmp_path, body)
        backend = BackendDescriptor("external", name="x", command=cmd)
        with pytest.raises(ProcessFailure, match="classes"):
            predict(backend, volume, 2, stream())


class TestDescriptorValidation:
    def test_bad_flip_prob(self):
        with pytest.raises(ValueError):
            BackendDescriptor("noisy_oracle", flip_prob=1.5)

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            BackendDescriptor("external", command="x", timeout=0.0)

    def test_external_needs_command(self):
        with pytest.raises(ValueError):
            BackendDescriptor("external")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BackendDescriptor("magic")
