"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Every workload must print every metric that BENCHMARK.json names, with a
value and its unit; the output check must reject a tampered mask; the
tracer must nest spans per thread and report a vanished target as null;
and the benchmark must refuse to run without the package sources.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import threading
import types
import unittest

import numpy as np

import check
import nii
import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )


class MetricsTest(unittest.TestCase):
    def _result(self, workload, trace) -> dict:
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _assert_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])

    def test_every_metric_of_every_workload(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self._assert_metrics(self._result(workload["name"], 0),
                                     SPEC["end_to_end"])
                self._assert_metrics(self._result(workload["name"], 1),
                                     SPEC["per_layer"])

    def test_refuses_without_sources(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            bench_py = bare / "bench" / "run.py"
            proc = subprocess.run(
                [sys.executable, str(bench_py), "--workload", "cohort", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.work = run.WORK / "smoke-check"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, self.work, True)

    def _run_once(self, name):
        workload = run.tiny(run.WORKLOADS[name])
        inputs = run.make_inputs(workload, 5, self.work)
        out = self.work / "out"
        env = dict(run.os.environ, PYTHONPATH=str(run.SRC),
                   SEGTTA_TMPDIR=str(self.work))
        run._child(["command", "-", "--", workload.command,
                    "--config", str(inputs["config"]),
                    "--manifest", str(inputs["manifest"]),
                    "--out", str(out), "--format", "csv"], env,
                   run.time.monotonic() + 120)
        return workload, inputs, out

    def _tamper(self, mask_path):
        mask, spacing = nii.read(mask_path)
        flipped = mask.copy()
        flipped[0, 0, 0] = 1 - flipped[0, 0, 0]
        raw = bytearray(gzip.decompress(mask_path.read_bytes()))
        raw[nii.VOX_OFFSET:] = flipped.astype("u1").tobytes(order="F")
        mask_path.write_bytes(gzip.compress(bytes(raw)))

    def test_accepts_then_rejects_tampered_mask(self):
        for name in ("cohort", "ablate", "deploy"):
            with self.subTest(workload=name):
                workload, inputs, out = self._run_once(name)
                args = (inputs["cases"], workload.variant, workload.labelled)
                verdict = check.check_output(out, *args)
                self.assertEqual(verdict["problems"], {})
                self._tamper(out / "masks" / "case000.nii.gz")
                tampered = check.check_output(out, *args)
                self.assertEqual(set(tampered["problems"]), {"case000"})
                self.assertNotEqual(tampered["digests"], verdict["digests"])
                shutil.rmtree(self.work)
                self.work.mkdir()

    def test_hd95_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            pred = rng.random((7, 6, 5)) < 0.3
            gt = rng.random((7, 6, 5)) < 0.3
            spacing = (1.0, 0.5, 2.0)
            ps = np.argwhere(check._surface(pred)) * spacing
            gs = np.argwhere(check._surface(gt)) * spacing
            dist = np.sqrt(((ps[:, None, :] - gs[None, :, :]) ** 2).sum(-1))
            want = np.percentile(np.concatenate([dist.min(1), dist.min(0)]), 95)
            self.assertAlmostEqual(check.hd95(pred, gt, spacing), want, places=9)


class TracerTest(unittest.TestCase):
    def setUp(self):
        fake = types.ModuleType("bench_fake_layer")
        barrier = threading.Barrier(2)

        def inner(x):
            barrier.wait(timeout=10)
            return x + 1

        def outer(x):
            return fake.inner(x) * 2

        fake.inner, fake.outer, fake.plain = inner, outer, lambda x: x
        sys.modules["bench_fake_layer"] = fake
        self.addCleanup(sys.modules.pop, "bench_fake_layer")
        self.fake = fake

    def test_spans_nest_per_thread(self):
        t = tracer.Tracer()
        t.install([("bench_fake_layer.outer", "metrics.hd95", None),
                   ("bench_fake_layer.inner", "metrics.edt", None)])
        threads = [threading.Thread(target=self.fake.outer, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            self.assertFalse(th.is_alive())
        spans = t.dump()["spans"]
        self.assertEqual(len(spans), 4)
        for name, start, end, parent, thread, _ in spans:
            if name == "metrics.edt":
                self.assertEqual(spans[parent][0], "metrics.hd95")
                self.assertEqual(spans[parent][4], thread)
            else:
                self.assertIsNone(parent)
        own = tracer.self_times(spans)
        self.assertTrue(all(v >= 0 for v in own))

    def test_missing_target_is_null(self):
        t = tracer.Tracer()
        t.install([("bench_fake_layer.gone", "metrics.hd95", None),
                   ("bench_fake_layer.outer", "fusion.fuse", None)])
        self.assertEqual(t.missing, [["bench_fake_layer.gone", "metrics.hd95"]])
        metrics = tracer.layer_metrics(t.dump())
        self.assertIsNone(metrics["metrics.hd95_s"]["value"])
        self.assertIsNone(metrics["metrics.hd95_calls"]["value"])
        self.assertEqual(metrics["fusion.fuse_calls"]["value"], 0)

    def test_failing_recorder_is_null_not_a_crash(self):
        t = tracer.Tracer()
        t.install([("bench_fake_layer.plain", "nifti.read", lambda *a: 1 / 0)])
        self.assertEqual(self.fake.plain(7), 7)
        self.assertEqual(len(t.missing), 1)
        metrics = tracer.layer_metrics(t.dump())
        self.assertIsNone(metrics["nifti.read_mb"]["value"])
        self.assertIsNone(metrics["nifti.read_calls"]["value"])


def tearDownModule():
    try:
        run.WORK.rmdir()
    except OSError:
        pass  # a benchmark run is still using it


if __name__ == "__main__":
    unittest.main()
