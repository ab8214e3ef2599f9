import gc
import itertools
import os
import shlex
import signal
import sys
import textwrap
import threading
import time
from types import SimpleNamespace
import weakref

import numpy as np
import pytest

from segtta import (
    BackendDescriptor,
    LabelMask,
    ProbabilityMap,
    SeededRng,
    Spacing,
    Volume,
    make_phantom,
    predict,
)
import segtta.backends
from segtta.backends import _dilate_step, _erode_step, _predict_noisy, _soften
from segtta.errors import (
    ConfigError,
    DimensionMismatch,
    GroundTruthMissing,
    InvalidConfidence,
    InvalidLabels,
    IoFailure,
    NotProbabilistic,
    ProcessFailure,
)
from segtta.metrics import _surface

from conftest import brute_force_neighbourhood_ops, dense, reference_noisy_oracle


pytestmark = pytest.mark.usefixtures("child_imports_segtta")


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
        np.testing.assert_array_equal(np.argmax(dense(out), axis=-1), gt.labels)
        assert dense(out).max() == 1.0

    def test_softened_confidence(self, case):
        volume, gt = case
        out = predict(BackendDescriptor("oracle", name="o", confidence=0.8),
                      volume, 2, stream(), ground_truth=gt)
        np.testing.assert_array_equal(np.argmax(dense(out), axis=-1), gt.labels)
        assert np.allclose(dense(out).max(axis=-1), 0.8)

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

    def test_confidence_bound_is_a_named_error(self, case):
        volume, gt = case
        backend = BackendDescriptor("oracle", name="o", confidence=0.5)
        with pytest.raises(InvalidConfidence, match=r"confidence=0\.5 outside \(1/2, 1\]"):
            predict(backend, volume, 2, stream(), ground_truth=gt)


class TestNoisyOracle:
    def test_degenerate_noise_equals_oracle(self, case):
        volume, gt = case
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=0,
                                    flip_prob=0.0, confidence=0.9)
        out = predict(backend, volume, 2, stream(), ground_truth=gt)
        np.testing.assert_array_equal(np.argmax(dense(out), axis=-1), gt.labels)
        assert np.allclose(dense(out).max(axis=-1), 0.9)

    def test_deterministic_per_stream(self, case):
        volume, gt = case
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=1,
                                    flip_prob=0.2, confidence=0.9)
        a = predict(backend, volume, 2, stream(), ground_truth=gt)
        b = predict(backend, volume, 2, stream(), ground_truth=gt)
        np.testing.assert_array_equal(dense(a), dense(b))
        c = predict(backend, volume, 2, stream("other"), ground_truth=gt)
        assert not np.array_equal(dense(a), dense(c))

    def test_flip_rate_converges(self):
        volume, gt = make_phantom(dims=(48, 48, 48), seed=11, vol_id="big")
        p = 0.1
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=0,
                                    flip_prob=p, confidence=0.9)
        out = predict(backend, volume, 2, SeededRng(2024, "flip-rate"),
                      ground_truth=gt)
        disagree = (np.argmax(dense(out), axis=-1) != gt.labels).mean()
        n = 48**3
        se = np.sqrt(p * (1 - p) / n)
        assert abs(disagree - p) < 3 * se

    def test_jitter_moves_only_the_boundary(self, case):
        volume, gt = case
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=1,
                                    flip_prob=0.0, confidence=1.0)
        out = predict(backend, volume, 2, stream(), ground_truth=gt)
        pred = np.argmax(dense(out), axis=-1)
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
        pred = np.argmax(dense(out), axis=-1)
        assert (pred != gt.labels).all()


def mask_shapes(dims, num_classes, gen):
    """An empty mask, an all-foreground mask and a one-voxel-thick sheet,
    each foreground voxel of a random class in 1..C-1."""
    full = gen.integers(1, num_classes, size=dims).astype(np.uint8)
    sheet = np.zeros(dims, dtype=np.uint8)
    sheet[:, dims[1] // 2, :] = full[:, dims[1] // 2, :]
    return {"empty": np.zeros(dims, dtype=np.uint8), "full": full, "sheet": sheet}


class TestNoisyOracleBytes:
    """The synthetic kinds' maps against the independent reference on the
    same random stream, byte for byte, over a fixed grid of parameters."""

    @staticmethod
    def check_map(probs, want, where):
        """``probs`` is C-ordered float64 and, byte for byte, the checked
        map of the dense softened array ``want``."""
        assert probs.dtype == np.float64 and probs.flags.c_contiguous, where
        assert probs.tobytes() == dense(ProbabilityMap(want)).tobytes(), where

    @pytest.mark.parametrize("num_classes", [2, 3, 9, 256])
    def test_matches_the_reference(self, num_classes):
        dims = (6, 5, 4)
        volume = Volume(np.zeros(dims), Spacing(1.0, 1.0, 1.0), vol_id="v")
        masks = mask_shapes(dims, num_classes, np.random.default_rng(num_classes))
        just_above_uniform = float(np.nextafter(1.0 / num_classes, 1.0))
        for jitter, flip_prob, confidence, shape in itertools.product(
            (0, 1, 2), (0.0, 0.1, 1.0), (just_above_uniform, 0.9, 1.0), masks
        ):
            labels = masks[shape]
            backend = BackendDescriptor("noisy_oracle", name="n", confidence=confidence,
                                        jitter=jitter, flip_prob=flip_prob)
            rng = SeededRng(2024, "bytes", shape, str(num_classes), str(jitter),
                            repr(flip_prob), repr(confidence))
            want = reference_noisy_oracle(labels, num_classes, confidence, jitter,
                                          flip_prob, rng.generator())
            gt = LabelMask(labels, num_classes)
            got = np.take(_soften(num_classes, confidence),
                          _predict_noisy(backend, gt, num_classes, rng), axis=0)
            where = (shape, jitter, flip_prob, confidence)
            assert got.dtype == np.float64 and got.flags.c_contiguous, where
            assert got.tobytes() == want.tobytes(), where
            probs = dense(predict(backend, volume, num_classes, rng, ground_truth=gt))
            self.check_map(probs, want, where)

    @pytest.mark.parametrize("num_classes", [2, 3, 9, 256])
    @pytest.mark.parametrize("kind", ["oracle", "constant"])
    def test_oracle_and_constant_match_the_reference(self, kind, num_classes):
        dims = (6, 5, 4)
        volume = Volume(np.zeros(dims), Spacing(1.0, 1.0, 1.0), vol_id="v")
        masks = mask_shapes(dims, num_classes, np.random.default_rng(num_classes))
        just_above_uniform = float(np.nextafter(1.0 / num_classes, 1.0))
        if kind == "oracle":
            grid = [
                (BackendDescriptor("oracle", name="o", confidence=confidence),
                 masks[shape], confidence)
                for confidence in (just_above_uniform, 0.9, 1.0) for shape in masks
            ]
        else:
            grid = [
                (BackendDescriptor("constant", name="k", constant_class=k),
                 np.full(dims, k, dtype=np.uint8), 1.0)
                for k in (0, 1, num_classes - 1)
            ]
        for backend, labels, confidence in grid:
            # With no jitter and no flips the reference is the dense softened
            # one-hot of ``labels``; it draws nothing.
            want = reference_noisy_oracle(labels, num_classes, confidence, 0, 0.0,
                                          None)
            gt = LabelMask(labels, num_classes)  # the constant kind ignores it
            probs = dense(predict(backend, volume, num_classes, stream(), ground_truth=gt))
            self.check_map(probs, want, (backend, confidence))


class TestJitterMemo:
    """A ground-truth mask is jittered once per direction and step count,
    shared across threads, and the memo keeps no mask alive."""

    def test_threads_share_one_result(self):
        # Eight threads race for the same two memo entries; a lost update
        # would hand different threads different arrays.
        _, gt = make_phantom(dims=(12, 12, 10), seed=5, vol_id="case")
        got = []

        def work():
            for step in (_dilate_step, _erode_step):
                got.append((step, segtta.backends._jitter(gt, step, 1)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == 16
        for step in (_dilate_step, _erode_step):
            shared = {id(labels) for s, labels in got if s is step}
            assert len(shared) == 1
            labels = next(labels for s, labels in got if s is step)
            np.testing.assert_array_equal(labels, step(np.asarray(gt.labels)))
            assert not labels.flags.writeable

    @pytest.mark.parametrize("step", [_dilate_step, _erode_step])
    def test_jitter_stops_at_its_fixed_point(self, step):
        # A jitter of 10**9 steps returns: after sum(dims) steps dilation has
        # reached every voxel and erosion has emptied the mask.
        _, gt = make_phantom(dims=(12, 12, 10), seed=5, vol_id="case")
        labels = np.asarray(gt.labels)
        for _ in range(sum(gt.dims)):
            labels = step(labels)
        np.testing.assert_array_equal(step(labels), labels)
        np.testing.assert_array_equal(segtta.backends._jitter(gt, step, 10**9), labels)

    def test_memo_keeps_no_mask_alive(self):
        volume, gt = make_phantom(dims=(12, 12, 10), seed=5, vol_id="case")
        backend = BackendDescriptor("noisy_oracle", name="n", jitter=1, flip_prob=0.1)
        predict(backend, volume, 2, stream(), ground_truth=gt)
        assert gt in segtta.backends._jittered
        ref = weakref.ref(gt)
        del gt
        gc.collect()
        assert ref() is None


def random_label_volumes(count, seed=7):
    """Random uint8 label volumes with 2-3 classes; axes of length 1 and 2
    are common, and some volumes are mostly background."""
    gen = np.random.default_rng(seed)
    for _ in range(count):
        dims = tuple(int(gen.choice([1, 2, 3, 4, 6])) for _ in range(3))
        num_classes = int(gen.integers(2, 4))
        fill = gen.choice([0.3, 0.7, 0.95])
        labels = gen.integers(1, num_classes, size=dims)
        labels[gen.random(dims) > fill] = 0
        yield labels.astype(np.uint8)


class TestNeighbourhood:
    """The surface, dilation and erosion steps against a voxel-by-voxel
    neighbour loop."""

    def test_match_the_brute_force_oracle(self):
        for labels in random_label_volumes(120):
            surface, dilated, eroded = brute_force_neighbourhood_ops(labels)
            np.testing.assert_array_equal(_surface(labels > 0), surface)
            np.testing.assert_array_equal(_dilate_step(labels), dilated)
            np.testing.assert_array_equal(_erode_step(labels), eroded)

    def test_dilation_takes_the_lowest_neighbouring_class(self):
        labels = np.zeros((3, 1, 1), dtype=np.uint8)
        labels[0], labels[2] = 2, 1
        np.testing.assert_array_equal(_dilate_step(labels).ravel(), [2, 1, 1])
        labels[0], labels[2] = 1, 2
        np.testing.assert_array_equal(_dilate_step(labels).ravel(), [1, 1, 2])


class TestConstant:
    def test_background_constant(self, case):
        volume, _ = case
        out = predict(BackendDescriptor("constant", name="c", constant_class=0),
                      volume, 2, stream())
        np.testing.assert_array_equal(np.argmax(dense(out), axis=-1), 0)
        assert dense(out)[..., 0].min() == 1.0

    def test_class_out_of_range(self, case):
        volume, _ = case
        with pytest.raises(ValueError):
            predict(BackendDescriptor("constant", name="c", constant_class=5),
                    volume, 2, stream())

    def test_class_out_of_range_is_a_config_error(self, case):
        volume, _ = case
        with pytest.raises(ConfigError, match="constant_class=5 >= num_classes=2"):
            predict(BackendDescriptor("constant", name="c", constant_class=5),
                    volume, 2, stream())

    def test_one_hot_bytes(self, case):
        volume, _ = case
        out = predict(BackendDescriptor("constant", name="c", constant_class=2),
                      volume, 3, stream())
        want = np.zeros((*volume.dims, 3))
        want[..., 2] = 1.0
        assert dense(out).tobytes() == want.tobytes()


ECHO_BACKEND = textwrap.dedent(
    """
    import sys
    import numpy as np
    from segtta import read_volume, ProbabilityMap, write_probability_map

    inp, out, classes = sys.argv[1], sys.argv[2], int(sys.argv[3])
    volume = read_volume(inp)
    fg = (volume.data > 0.5)[..., None]
    probs = np.where(fg, [0.2, 0.8], [0.9, 0.1])
    write_probability_map(ProbabilityMap(probs), out, volume.spacing)
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
            np.argmax(dense(out), axis=-1) == 1, expected_fg
        )
        # The exchange directory is cleaned up afterwards; the map's values
        # stay in one file until the map is dropped.
        assert not any(p.is_dir() and p.name.startswith("segtta-")
                       for p in tmp_path.iterdir())
        (spill,) = tmp_path.glob("segtta-*.map")
        del out
        assert not spill.exists()

    def test_largest_timeout_still_runs_the_child(self, case, tmp_path):
        # communicate waits through poll(), whose C int of milliseconds
        # holds this timeout and overflows one millisecond past it.
        volume, _ = case
        backend = BackendDescriptor(
            "external", name="x", command=script_command(tmp_path, ECHO_BACKEND),
            timeout=2147483.647,
        )
        out = predict(backend, volume, 2, stream())
        np.testing.assert_array_equal(
            np.argmax(dense(out), axis=-1) == 1, volume.data > 0.5
        )

    def test_nonzero_exit(self, case, tmp_path):
        volume, _ = case
        cmd = script_command(tmp_path, "import sys; sys.exit(3)")
        backend = BackendDescriptor("external", name="x", command=cmd)
        with pytest.raises(ProcessFailure, match="exited with 3"):
            predict(backend, volume, 2, stream())

    def test_child_output_logged_before_exit_check(self, case, tmp_path):
        class Recorder:
            def __init__(self):
                self.events = []

            def emit(self, event, **fields):
                self.events.append((event, fields))

        volume, _ = case
        cmd = script_command(
            tmp_path,
            "import sys; print('weights loaded'); print('oom', file=sys.stderr); "
            "sys.exit(3)",
        )
        backend = BackendDescriptor("external", name="x", command=cmd)
        log = Recorder()
        with pytest.raises(ProcessFailure, match="exited with 3"):
            predict(backend, volume, 2, stream(), log=log)
        [(event, fields)] = log.events
        assert event == "log"
        assert fields["logger"] == "segtta.backends"
        assert fields["message"].startswith("external backend x finished in ")
        assert fields["message"].endswith("s (exit 3)")
        assert fields["child_stdout"] == "weights loaded\n"
        assert fields["child_stderr"] == "oom\n"

    @pytest.mark.parametrize("code", [0, 1])
    def test_undecodable_child_output(self, case, tmp_path, code):
        # 0xff never starts a UTF-8 character; the child's output is only
        # logged, so such bytes are replaced and the exit code decides.
        volume, _ = case
        body = ECHO_BACKEND + (
            "sys.stdout.buffer.write(b'\\xff\\n')\n"
            "sys.stderr.buffer.write(b'\\xff\\n')\n"
            f"sys.exit({code})\n"
        )
        backend = BackendDescriptor(
            "external", name="x", command=script_command(tmp_path, body), timeout=60.0,
        )
        events = []
        log = SimpleNamespace(emit=lambda event, **fields: events.append(fields))
        if code:
            with pytest.raises(ProcessFailure, match="exited with 1"):
                predict(backend, volume, 2, stream(), log=log)
        else:
            assert predict(backend, volume, 2, stream(), log=log).dims == volume.dims
        [fields] = events
        assert len(fields["child_stdout"]) == len(fields["child_stderr"]) == 2

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

    def test_background_helper_killed_after_normal_exit(self, case, tmp_path):
        # A model that leaves a helper behind and exits 0: the helper goes
        # with the child's process group once predict returns.
        volume, _ = case
        pid_file = tmp_path / "helper.pid"
        cmd = (f"sleep 30 >/dev/null 2>&1 & echo $! > {shlex.quote(str(pid_file))}; "
               + script_command(tmp_path, ECHO_BACKEND))
        backend = BackendDescriptor("external", name="x", command=cmd, timeout=60.0)
        assert predict(backend, volume, 2, stream()).dims == volume.dims
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while process_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = process_alive(pid)
        if leaked:
            os.kill(pid, signal.SIGKILL)  # not left running by a failed check
        assert not leaked

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
            np.argmax(dense(out), axis=-1) == 1, volume.data > 0.5
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

    def test_output_dims_differ_from_the_input(self, case, tmp_path):
        volume, _ = case
        body = textwrap.dedent(
            """
            import sys
            import numpy as np
            from segtta import read_volume, ProbabilityMap, write_probability_map

            volume = read_volume(sys.argv[1])
            probs = np.full((3, 3, 3, 2), 0.5)
            write_probability_map(ProbabilityMap(probs), sys.argv[2], volume.spacing)
            """
        )
        backend = BackendDescriptor("external", name="x",
                                    command=script_command(tmp_path, body))
        with pytest.raises(DimensionMismatch,
                           match=r"output dims \(3, 3, 3\) != input dims \(12, 12, 10\)"):
            predict(backend, volume, 2, stream())

    def test_missing_exchange_dir_is_an_io_failure(self, case, tmp_path, monkeypatch):
        missing = tmp_path / "missing"
        monkeypatch.setenv("SEGTTA_TMPDIR", str(missing))
        volume, _ = case
        backend = BackendDescriptor(
            "external", name="x", command=script_command(tmp_path, ECHO_BACKEND),
        )
        with pytest.raises(IoFailure) as info:
            predict(backend, volume, 2, stream())
        assert str(info.value).startswith(f"cannot create a work directory in {missing}: ")
        assert not missing.exists()

    def test_wrong_class_count(self, case, tmp_path):
        volume, _ = case
        body = textwrap.dedent(
            """
            import sys
            import numpy as np
            from segtta import read_volume, ProbabilityMap, write_probability_map

            volume = read_volume(sys.argv[1])
            probs = np.full((*volume.dims, 4), 0.25)
            write_probability_map(ProbabilityMap(probs), sys.argv[2], volume.spacing)
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

    @pytest.mark.parametrize("kind, field, value, match", [
        ("oracle", "confidence", 0.0, r"confidence=0.0 outside \(0, 1\]"),
        ("oracle", "confidence", 1.5, r"confidence=1.5 outside \(0, 1\]"),
        ("noisy_oracle", "jitter", -1, "jitter=-1 must be >= 0"),
        ("constant", "constant_class", -1, "constant_class=-1 must be >= 0"),
    ], ids=["confidence-zero", "confidence-above-one", "jitter", "constant-class"])
    def test_field_out_of_range(self, kind, field, value, match):
        with pytest.raises(ConfigError, match=match):
            BackendDescriptor(kind, **{field: value})

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            BackendDescriptor("external", command="x", timeout=0.0)

    def test_external_needs_command(self):
        with pytest.raises(ValueError):
            BackendDescriptor("external")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BackendDescriptor("magic")


class TestPredictArguments:
    def test_too_few_classes_is_a_config_error(self, case):
        volume, gt = case
        with pytest.raises(ConfigError, match="num_classes=1 must be >= 2") as info:
            predict(BackendDescriptor("oracle", name="o"), volume, 1, stream(),
                    ground_truth=gt)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("kind, flip_prob", [
        ("noisy_oracle", 0.5), ("noisy_oracle", 1.0), ("oracle", 0.0)])
    def test_ground_truth_with_more_classes_is_named(self, case, kind, flip_prob):
        # Flipping every voxel would wrap class 2 back into range; the
        # declared count is refused whatever the draws.
        volume, _ = case
        gt = LabelMask(np.arange(volume.data.size).reshape(volume.dims) % 3, 3)
        backend = BackendDescriptor(kind, name="n", flip_prob=flip_prob)
        with pytest.raises(InvalidLabels, match=(
                r"ground truth for 'case' has 3 classes, more than num_classes=2")):
            predict(backend, volume, 2, stream(), ground_truth=gt)

    def test_unknown_kind_is_a_config_error(self, case):
        volume, gt = case
        backend = BackendDescriptor("oracle", name="o")
        # The descriptor rejects an unknown kind; predict guards its own branch.
        object.__setattr__(backend, "kind", "magic")
        with pytest.raises(ConfigError, match="unknown backend kind 'magic'") as info:
            predict(backend, volume, 2, stream(), ground_truth=gt)
        assert isinstance(info.value, ValueError)
