"""The contracts of the three experiments, on drawn configs and datasets.

For ``run``, ``ablate`` and ``sweep`` through the command line:

* masks, ``report.csv``, failure reasons and ``result.json`` (without its
  timings and the jobs setting) are the same with 1 and 3 workers;
* each row equals the ``fused`` row of a from-scratch ``run`` of its view
  set at its tau, whose config lists the augmentations in reverse, so the
  order predictions run in differs from the experiment's: its report and
  foreground volume, and its masks where the experiment writes them;
* ``backends.predict`` runs at most once per (case, member, view), and
  exactly once per such pair of a case that does not fail;
* a case fails exactly when one of its pairs fails, and its reason starts
  with the smallest failing source tag. A pair fails when a patched
  ``backends.predict`` refuses it, as drawn, or when its member is an
  oracle kind and the case has no label.

Half the examples send every fusion down the value path, by allowing no
interned chain.
"""

from collections import Counter
from dataclasses import replace
import json
from pathlib import Path
import tempfile

from hypothesis import given, settings, strategies as st
import pytest

from segtta import (
    AugmentationSpec,
    BackendDescriptor,
    RunConfig,
    backends,
    fusion,
    load_manifest,
    run_segtta,
    write_phantom_dataset,
)
from segtta.cli import main
from segtta.config import BASELINE_VIEW
from segtta.core import Memo
from segtta.errors import InvalidVolume
from segtta.fusion import VOTING_MODES
from segtta.pipeline import FUSED_VARIANT, source_tag

AUGMENTATIONS = (
    AugmentationSpec("gamma_correction", gamma=0.8),
    AugmentationSpec("gamma_correction", gamma=1.5),
    AugmentationSpec("contrast_enhancement", alpha=1.3),
    AugmentationSpec("gaussian_blur", sigma=1.0),
    AugmentationSpec("gaussian_noise", sigma=0.05),
)
TAUS = (0.3, 0.5, 0.6, 0.75, 0.9)


@st.composite
def members(draw, num_classes: int):
    """1-3 synthetic members, named so that their tag order need not be
    their config order. At confidences 0.6 and 0.7 votes add up to sums
    that round differently in different orders, so ties between classes,
    and scores at tau, show the order maps are added in. Each draw's
    simplest value is the one that shows the most: two noisy members at
    0.6, whose votes tie wherever their maps split evenly."""
    names = draw(st.permutations("abc"))
    chosen = []
    for name in names[:draw(st.sampled_from([2, 3, 1]))]:
        kind = draw(st.sampled_from(["noisy_oracle", "oracle", "constant"]))
        if kind == "oracle":
            fields = {"confidence": draw(st.sampled_from([0.6, 1.0]))}
        elif kind == "noisy_oracle":
            fields = {"confidence": draw(st.sampled_from([0.6, 0.7])),
                      "jitter": draw(st.integers(0, 1)),
                      "flip_prob": draw(st.sampled_from([0.3, 0.1]))}
        else:
            fields = {"constant_class": draw(st.integers(0, num_classes - 1))}
        chosen.append(BackendDescriptor(kind, name=name, **fields))
    return tuple(chosen)


@st.composite
def configs(draw, num_classes: int):
    specs = draw(st.permutations(AUGMENTATIONS))[:draw(st.sampled_from([4, 3, 2, 1]))]
    config = RunConfig(
        backends=draw(members(num_classes)), augmentations=specs,
        include_baseline=draw(st.booleans()),
        voting=draw(st.sampled_from(VOTING_MODES[::-1])),
        tau=draw(st.sampled_from(TAUS)), seed=draw(st.integers(0, 99)),
    )
    pairs = [(b.name, view) for b in config.backends for view in config.views]
    subset = draw(st.none() | st.lists(st.sampled_from(pairs), min_size=1,
                                       unique=True))
    return config if subset is None else replace(config, subset=tuple(subset))


def write_manifest(root: Path, data, num_classes: int) -> Path:
    """2-3 phantom cases of 3x3x2 to 8x8x6, some without a label. The
    largest dims are the simplest draw: more voxels, more ties; so is a
    labelled case, since every oracle member fails on an unlabelled one."""
    n_cases = data.draw(st.integers(2, 3))
    dims = tuple(n - data.draw(st.integers(0, n - low))
                 for n, low in ((8, 3), (8, 3), (6, 2)))
    path = write_phantom_dataset(root, n_cases=n_cases, dims=dims,
                                 num_classes=num_classes,
                                 seed=data.draw(st.integers(0, 99)))
    labelled = data.draw(st.lists(st.sampled_from([True, False]),
                                  min_size=n_cases, max_size=n_cases))
    entries = json.loads(path.read_text())
    for entry, keep in zip(entries, labelled):
        if not keep:
            del entry["label"]
    path.write_text(json.dumps(entries))
    return path


def rows(command: str, config: RunConfig, taus):
    """Each (row, view set, tau, directory of its masks or None) of an
    experiment."""
    views = set(config.views)
    if command == "run":
        return [(v, {v}, config.tau, None) for v in views] + [
            (FUSED_VARIANT, views, config.tau, "masks")]
    if command == "sweep":
        return [(f"tau={t:g}", views, t, f"masks/tau={t:g}") for t in taus]
    out = [("full", views, config.tau, "masks")]
    if config.include_baseline:
        out.append((BASELINE_VIEW, {BASELINE_VIEW}, config.tau, None))
    return out + [(f"w/o {s.label()}", views - {s.label()}, config.tau, None)
                  for s in config.augmentations]


def from_scratch(config: RunConfig, manifest, views: set, tau: float, out: Path):
    """``{case: (report, foreground, mask bytes)}`` of the ``fused`` row of
    a run of ``views`` alone into ``out``, the report and foreground as
    result.json holds them; None when no pair of the config predicts on
    them."""
    subset = config.subset
    if subset is not None:
        subset = tuple(pair for pair in subset if pair[1] in views)
        if not subset:
            return None
    reduced = replace(
        config, augmentations=tuple(s for s in config.augmentations[::-1]
                                    if s.label() in views),
        include_baseline=BASELINE_VIEW in views, subset=subset, tau=tau, jobs=1)
    d = json.loads(json.dumps(run_segtta(reduced, manifest, out_dir=out).to_dict()))
    return {case: (row[FUSED_VARIANT], d["fg_volume"][case][FUSED_VARIANT],
                   (out / "masks" / f"{case}.nii.gz").read_bytes())
            for case, row in d["per_case"].items()}


def artifacts(out: Path) -> dict:
    """Everything a run writes that must not depend on the jobs setting."""
    result = json.loads((out / "result.json").read_text())
    del result["timings"], result["config"]["jobs"]
    masks = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted((out / "masks").rglob("*.nii.gz"))}
    return {"result": result, "masks": masks,
            "report": (out / "report.csv").read_bytes()}


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.data())
def test_experiments_keep_their_contracts(data):
    num_classes = data.draw(st.integers(2, 3), label="num_classes")
    config = data.draw(configs(num_classes), label="config")
    taus = data.draw(st.lists(st.sampled_from(TAUS), min_size=1, max_size=3,
                              unique=True), label="taus")
    value_path = data.draw(st.booleans(), label="value_path")
    commands = ["run", "sweep"] + (["ablate"] if len(config.augmentations) >= 2 else [])
    pairs = {source_tag(b.name, view) for view in config.views for b in config.backends
             if config.subset is None or (b.name, view) in config.subset}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        root = Path(tmp)
        manifest_path = write_manifest(root / "data", data, num_classes)
        manifest = load_manifest(manifest_path)
        refused = set(data.draw(st.lists(
            st.tuples(st.sampled_from([e.case_id for e in manifest.entries]),
                      st.sampled_from(sorted(pairs))),
            max_size=3, unique=True), label="refused"))
        oracle_tags = {source_tag(b.name, view) for view in config.views
                       for b in config.backends if b.kind != "constant"} & pairs
        failing = {entry.case_id: {tag for case, tag in refused if case == entry.case_id}
                   | (set() if entry.label else oracle_tags)
                   for entry in manifest.entries}
        config_path = root / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        if value_path:
            patch.setattr(fusion, "CHAIN_PAIRS", 0)
            patch.setattr(fusion, "_chains", Memo(fusion.CHAINS_KEPT))
        predicted = []
        predict = backends.predict

        def refusing(backend, image, *args, **kwargs):
            predicted.append((image.vol_id, kwargs["source_tag"]))
            if predicted[-1] in refused:
                raise InvalidVolume(f"refused {kwargs['source_tag']}")
            return predict(backend, image, *args, **kwargs)

        patch.setattr(backends, "predict", refusing)
        references = {}
        for command in commands:
            written = []
            for jobs in (1, 3):
                predicted.clear()
                out = root / f"{command}-{jobs}"
                code = main([command, "--config", str(config_path),
                             "--manifest", str(manifest_path), "--out", str(out),
                             "--jobs", str(jobs), "--format", "csv",
                             *(["--taus", ",".join(map(str, taus))]
                               if command == "sweep" else [])])
                written.append((code, artifacts(out)))
                reasons = dict(written[-1][1]["result"]["failures"])
                failed = set(reasons)
                assert failed == {case for case, tags in failing.items() if tags}, command
                for case, reason in reasons.items():
                    assert reason.startswith(f"{min(failing[case])}: "), (command, reason)
                counts = Counter(predicted)
                assert max(counts.values(), default=1) == 1, command
                for entry in manifest.entries:
                    tags = {tag for case, tag in counts if case == entry.case_id}
                    assert tags == pairs if entry.case_id not in failed else tags <= pairs
            assert written[0] == written[1], f"{command} differs across jobs"
            result, masks = written[0][1]["result"], written[0][1]["masks"]
            for row, views, tau, mask_dir in rows(command, config, taus):
                key = (frozenset(views), tau)
                if key not in references:
                    references[key] = from_scratch(config, manifest, views, tau,
                                                   root / f"scratch-{len(references)}")
                want = references[key]
                for case, got in result["per_case"].items():
                    if want is None:
                        assert row not in got, (command, row)
                        continue
                    report, fg, mask = want[case]
                    assert (got[row], result["fg_volume"][case][row]) == (report, fg), \
                        (command, row, case)
                    if mask_dir is not None:
                        assert masks[f"{mask_dir}/{case}.nii.gz"] == mask, \
                            (command, row, case)
