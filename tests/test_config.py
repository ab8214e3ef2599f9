import json
import re

import numpy as np
import pytest

from segtta import (
    AugmentationSpec,
    BackendDescriptor,
    RunConfig,
    default_augmentations,
    load_config,
    load_manifest,
)
from segtta.config import MAX_TIMEOUT, DatasetManifest, ManifestEntry
from segtta.errors import ConfigError, SegTTAError

from conftest import IGNORED_FIELD_CASES


def oracle():
    return BackendDescriptor("oracle", name="o", confidence=1.0)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(backends=(oracle(),))
        assert cfg.tau == 0.6
        assert cfg.seed == 2024
        assert cfg.include_baseline

    def test_needs_a_backend(self):
        with pytest.raises(ValueError):
            RunConfig(backends=())

    def test_auto_names_are_unique(self):
        cfg = RunConfig(backends=(
            BackendDescriptor("constant"), BackendDescriptor("constant"),
        ))
        assert [b.name for b in cfg.backends] == ["b0", "b1"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            RunConfig(backends=(
                BackendDescriptor("constant", name="x"),
                BackendDescriptor("constant", name="x"),
            ))

    @pytest.mark.parametrize("subset, named", [
        ((("nbX", "baseline"),), 'of the config: [["nbX", "baseline"]]'),
        ((("o", "baselin"), ("o", "baseline")), 'of the config: [["o", "baselin"]]'),
        (((1, 2),), "config field 'subset' must be a list of [backend, view] string pairs"),
    ], ids=["unknown-backend", "unknown-view", "numbers"])
    def test_subset_must_name_a_backend_and_a_view(self, subset, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig(backends=(oracle(),), subset=subset)

    @pytest.mark.parametrize("field, items, named", [
        ("backends", ({"kind": "oracle"},), "item 0 must be BackendDescriptor, got dict"),
        ("backends", (oracle(), "oracle"), "item 1 must be BackendDescriptor, got str"),
        ("augmentations", ({"kind": "identity"},),
         "item 0 must be AugmentationSpec, got dict"),
        ("backends", None, "must be a tuple of BackendDescriptor, got NoneType"),
        ("augmentations", None, "must be a tuple of AugmentationSpec, got NoneType"),
    ], ids=["backend-dict", "backend-string", "augmentation-dict", "backends-none",
            "augmentations-none"])
    def test_items_of_the_wrong_type_are_named(self, field, items, named):
        kwargs = {"backends": (oracle(),), field: items}
        with pytest.raises(ConfigError, match=re.escape(f"config field {field!r} {named}")):
            RunConfig(**kwargs)

    def test_subset_views_follow_the_config(self):
        gamma = AugmentationSpec("gamma_correction", gamma=0.8)
        cfg = RunConfig(backends=(oracle(),), augmentations=(gamma,),
                        subset=(("o", gamma.label()),))
        assert cfg.views == ("baseline", "gamma_correction(gamma=0.8)")
        with pytest.raises(ConfigError, match="baseline"):
            RunConfig(backends=(oracle(),), augmentations=(gamma,),
                      include_baseline=False, subset=(("o", "baseline"),))

    def test_augmentation_labels_must_be_unique(self):
        gamma = AugmentationSpec("gamma_correction", gamma=0.8)
        blur = AugmentationSpec("gaussian_blur", sigma=1.0)
        with pytest.raises(ConfigError, match=re.escape(
                "augmentation labels must be unique, got ['gamma_correction(gamma=0.8)', "
                "'gaussian_blur(sigma=1.0,axis=2)', 'gamma_correction(gamma=0.8)']")):
            RunConfig(backends=(oracle(),), augmentations=(gamma, blur, gamma))

    def test_config_without_a_view_is_rejected(self, tmp_path):
        named = ("config has no view: 'include_baseline' is false and "
                 "'augmentations' is empty")
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig(backends=(oracle(),), include_baseline=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": [{"kind": "oracle"}],
                                    "include_baseline": False, "augmentations": []}))
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(path)
        # One view is enough, the baseline or an augmentation.
        assert RunConfig(backends=(oracle(),), augmentations=()).views == ("baseline",)
        gamma = AugmentationSpec("gamma_correction", gamma=0.8)
        assert RunConfig(backends=(oracle(),), augmentations=(gamma,),
                         include_baseline=False).views == (gamma.label(),)

    def test_empty_subset_is_rejected(self, tmp_path):
        named = "config field 'subset' holds no pair"
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig(backends=(oracle(),), subset=())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": [{"kind": "oracle"}], "subset": []}))
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(path)

    def test_tau_validated(self):
        with pytest.raises(ConfigError, match=r"^tau=0\.0 must be in \(0, 1\]$"):
            RunConfig(backends=(oracle(),), tau=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed=-1 must be non-negative"):
            RunConfig(backends=(oracle(),), seed=-1)

    def test_bad_voting_mode(self):
        with pytest.raises(ValueError):
            RunConfig(backends=(oracle(),), voting="plurality")

    def test_json_roundtrip(self, tmp_path):
        cfg = RunConfig(
            backends=(
                BackendDescriptor("noisy_oracle", name="n0", confidence=0.9,
                                  jitter=1, flip_prob=0.1),
                BackendDescriptor("external", name="x", command="run {input} {output}",
                                  timeout=30.0),
            ),
            augmentations=default_augmentations(),
            voting="majority",
            tau=0.5,
            seed=7,
            jobs=3,
            subset=(("n0", "baseline"),),
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path) == cfg

    def test_missing_augmentations_field_uses_default_set(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": [{"kind": "oracle", "name": "o"}]}))
        cfg = load_config(path)
        assert cfg.augmentations == default_augmentations()
        kinds = [a.kind for a in cfg.augmentations]
        assert kinds == ["gamma_correction", "contrast_enhancement",
                         "gaussian_blur", "gaussian_noise"]

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": [{"kind": "oracle"}], "taus": [1]}))
        with pytest.raises(ValueError, match="taus"):
            load_config(path)

    @pytest.mark.parametrize("document", [5, "abc", [1], None])
    def test_document_that_is_not_an_object(self, document):
        with pytest.raises(SegTTAError, match="config must be object"):
            RunConfig.from_dict(document)

    @pytest.mark.parametrize("document, field", [
        ({"backends": [{"kind": "oracle"}], "taus": [1]}, "config fields ['taus']"),
        ({"backends": [{"kind": "oracle", "cmd": "x"}]}, "backend fields ['cmd']"),
        ({"backends": [{"kind": "oracle"}],
          "augmentations": [{"kind": "identity", "axis": 1}]},
         "augmentation fields ['axis']"),
        ({"backends": [{"kind": "oracle", "ground_truth": "gt.nii"}]},
         "backend fields ['ground_truth']"),
    ])
    def test_unknown_field_is_a_config_error(self, document, field):
        what, unknown = field.split(" fields ")
        named = f"{what} has unknown fields {unknown}"
        with pytest.raises(ConfigError, match=re.escape(named)) as info:
            RunConfig.from_dict(document)
        assert isinstance(info.value, SegTTAError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("backend, message", [
        ({"name": "m", "command": "model {input}"}, "'m' command has no {output}"),
        ({"name": "m", "command": "model {input} > out.nii"},
         "'m' command has no {output}"),
        ({"command": "model {input}"}, "'b0' command has no {output}"),
        ({"name": "m", "command": "model {input} {output} {classe}"},
         "'m' command has unknown placeholder {classe}"),
        ({"name": "m", "command": "model {Input} {output}"},
         "'m' command has unknown placeholder {Input}"),
        ({"name": "m", "command": "model {inputs} {outputs}"},
         "'m' command has unknown placeholder {inputs}"),
        ({"name": "m", "command": "awk '{print}' {input} > {ouput}"},
         "'m' command has unknown placeholder {ouput}"),
        ({"name": "m", "command": "awk '{print}' {input}"},
         "'m' command has no {output}"),
    ], ids=["no-output", "redirect", "unnamed", "misspelt", "case", "batched",
            "misspelt-after-quotes", "quoted-only"])
    def test_external_command_placeholders_are_checked(self, backend, message):
        document = {"backends": [{"kind": "oracle"}, {"kind": "external", **backend}]}
        if "name" not in backend:
            document["backends"].reverse()
        with pytest.raises(ConfigError, match=re.escape(f"external backend {message}")):
            RunConfig.from_dict(document)

    @pytest.mark.parametrize("command", [
        "model {input} {output} {classes}",
        "model {output}",  # reads its input from elsewhere
        "sh -c 'model \"${HOME}\"/m.pt' {input} {output}",
        "awk '{print $1}' {input} > /dev/null; model {input} {output}",
        "find {} -name x; model {input} {output}",
        "model {input} {output} && awk '{print}' {output}.log",
        "model {input} | jq '{id}' > {output}",
        "sed -n '/x/{p}' {input} > /dev/null; model {input} {output}",
    ], ids=["all", "output-only", "shell-variable", "awk", "empty-braces",
            "awk-word", "jq", "sed"])
    def test_commands_that_fill_their_output_are_accepted(self, command):
        config = RunConfig.from_dict(
            {"backends": [{"kind": "external", "name": "m", "command": command}]})
        assert config.backends[0].command == command


class TestNumpyNumbers:
    def test_a_numpy_number_is_kept_as_its_python_value(self):
        member = BackendDescriptor("oracle", confidence=np.float32(0.5))
        cfg = RunConfig(backends=(member,), seed=np.int64(5), tau=np.float64(0.5),
                        jobs=np.int32(2))
        assert (cfg.seed, cfg.tau, cfg.jobs) == (5, 0.5, 2)
        assert [type(v) for v in (cfg.seed, cfg.tau, cfg.jobs)] == [int, float, int]
        assert type(cfg.backends[0].confidence) is float
        json.dumps(cfg.to_dict())

    def test_a_numpy_parameter_labels_its_view_as_the_json_config(self):
        from_json = AugmentationSpec.from_dict(
            json.loads('{"kind": "gaussian_blur", "sigma": 1.0}'))
        spec = AugmentationSpec("gaussian_blur", sigma=np.float64(1.0))
        assert spec.label() == from_json.label() == "gaussian_blur(sigma=1.0,axis=2)"
        # A Python int in a float field stays an int, and so does its label.
        labels = {AugmentationSpec("gamma_correction", gamma=g).label()
                  for g in (np.int64(2), 2)}
        assert labels == {"gamma_correction(gamma=2)"}


class TestBackendDescriptor:
    @pytest.mark.parametrize("backend, d", [
        (BackendDescriptor("oracle", name="o", confidence=0.9),
         {"kind": "oracle", "name": "o", "confidence": 0.9}),
        (BackendDescriptor("noisy_oracle", name="n", confidence=0.9, jitter=1,
                           flip_prob=0.1),
         {"kind": "noisy_oracle", "name": "n", "confidence": 0.9, "jitter": 1,
          "flip_prob": 0.1}),
        (BackendDescriptor("constant", name="c", constant_class=2),
         {"kind": "constant", "name": "c", "constant_class": 2}),
        (BackendDescriptor("external", name="x", command="m {input} {output}",
                           timeout=30.0),
         {"kind": "external", "name": "x", "command": "m {input} {output}",
          "timeout": 30.0}),
    ], ids=["oracle", "noisy_oracle", "constant", "external"])
    def test_to_dict_of_every_kind(self, backend, d):
        assert backend.to_dict() == d
        assert BackendDescriptor.from_dict(d) == backend

    @pytest.mark.parametrize("kind, document, field", IGNORED_FIELD_CASES,
                             ids=[f"{k}-{f}" for k, _, f in IGNORED_FIELD_CASES])
    def test_field_the_kind_ignores_is_rejected(self, kind, document, field):
        with pytest.raises(ConfigError,
                           match=re.escape(f"backend kind {kind!r} does not use "
                                           f"[{field!r}]")):
            BackendDescriptor.from_dict(document)

    def test_timeout_up_to_the_poll_bound_is_accepted(self, tmp_path):
        assert MAX_TIMEOUT == 2147483.647
        backend = BackendDescriptor("external", command="m {output}",
                                    timeout=2147483.647)
        assert backend.timeout == MAX_TIMEOUT
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": [backend.to_dict()]}))
        assert load_config(path).backends[0].timeout == MAX_TIMEOUT

    @pytest.mark.parametrize("timeout", [2147484, 1e9])
    def test_timeout_past_the_poll_bound_is_rejected(self, tmp_path, timeout):
        named = f"timeout={timeout!r} must be in (0, 2147483.647] seconds"
        with pytest.raises(ConfigError, match=re.escape(named)):
            BackendDescriptor("external", command="m {output}", timeout=timeout)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": [
            {"kind": "external", "command": "m {output}", "timeout": timeout}]}))
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(path)

    def test_every_ignored_field_is_named(self):
        with pytest.raises(ConfigError,
                           match=re.escape("['jitter', 'flip_prob', 'command']")):
            BackendDescriptor.from_dict(
                {"kind": "oracle", "jitter": 2, "flip_prob": 0.3, "command": "x"})


class TestManifest:
    def test_load_resolves_relative_paths(self, tmp_path):
        payload = [
            {"id": "a", "image": "a.nii", "label": "a_label.nii", "classes": 2},
            {"id": "b", "image": "sub/b.nii.gz", "classes": 2},
        ]
        path = tmp_path / "uterus.json"
        path.write_text(json.dumps(payload))
        manifest = load_manifest(path)
        assert manifest.name == "uterus"
        assert manifest.num_classes == 2
        assert manifest.entries[0].image == str(tmp_path / "a.nii")
        assert manifest.entries[1].label is None

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DatasetManifest("d", (
                ManifestEntry("a", "x.nii", 2),
                ManifestEntry("a", "y.nii", 2),
            ))

    def test_class_count_must_agree(self):
        with pytest.raises(ValueError, match="num_classes"):
            DatasetManifest("d", (
                ManifestEntry("a", "x.nii", 2),
                ManifestEntry("b", "y.nii", 3),
            ))

    @pytest.mark.parametrize("case_id", ["", ".", "..", "a/b", "../../escaped", "a\\b",
                                         "a\0b"])
    def test_case_id_built_in_python_must_be_a_plain_file_name(self, case_id):
        # Once "../../escaped" wrote its mask two directories above --out.
        with pytest.raises(ConfigError, match="field 'id' is not a plain file name"):
            ManifestEntry(case_id, "x.nii", 2)

    @pytest.mark.parametrize("classes", [1, 257, 300])
    def test_class_count_outside_label_range(self, classes):
        with pytest.raises(ConfigError, match=f"num_classes={classes} outside"):
            DatasetManifest("d", (ManifestEntry("a", "x.nii", classes),))

    @pytest.mark.parametrize("cases, message", [
        ([], "manifest has no cases"),
        ([{"id": "a", "image": "x.nii", "classes": 2}] * 2,
         "duplicate case ids in manifest: ['a']"),
        ([{"id": "a", "image": "x.nii", "classes": 2},
          {"id": "b", "image": "y.nii", "classes": 3}],
         "num_classes differs across entries: [2, 3]"),
        ([{"id": "a", "image": "x.nii", "classes": 1}], "num_classes=1 outside [2, 256]"),
    ], ids=["no-cases", "duplicate-ids", "class-counts-differ", "class-count-out-of-range"])
    def test_errors_of_the_whole_manifest_name_its_path(self, tmp_path, cases, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cases))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_manifest(path)

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"cases": []}))
        with pytest.raises(SegTTAError, match="list"):
            load_manifest(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"id": "a", "classes": 2}]))
        with pytest.raises(SegTTAError, match="image"):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["image", "label"])
    def test_empty_path_rejected(self, tmp_path, field):
        # An empty label read as "no label" would unscore the case, and an
        # empty image would read the manifest's directory.
        case = {"id": "b", "image": "b.nii", "label": "b_label.nii", "classes": 2, field: ""}
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"id": "a", "image": "a.nii", "classes": 2}, case]))
        with pytest.raises(ConfigError, match=re.escape(f"case 1: case 'b' field {field!r} is an empty path")):
            load_manifest(path)
