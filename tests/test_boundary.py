"""The input boundary: every rejection of outside input is a SegTTAError.

A mutated manifest, config or result document must give a valid object
or a named error through the API, and exit 0 or 1 with an ``error: ``
line, never a traceback, through the command line.
"""

import ast
import contextlib
import copy
import io
import json
from pathlib import Path
import re

from hypothesis import given, settings, strategies as st
import pytest

import segtta
from segtta import (
    BackendDescriptor,
    DatasetManifest,
    RunConfig,
    RunResult,
    default_augmentations,
    load_config,
    load_manifest,
    run_segtta,
    write_phantom_dataset,
)
from segtta.cli import main
from segtta.config import ManifestEntry
from segtta.errors import ConfigError, SegTTAError


def test_no_plain_value_error_is_raised():
    plain = []
    for path in sorted(Path(segtta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    plain.append(f"{path.name}:{node.lineno}")
    assert plain == []


# Strings drawn for values and keys. None of them can name the external
# backend kind, so no mutated config ever runs a command.
_NAMES = [
    "oracle", "noisy_oracle", "constant", "identity", "gaussian_blur",
    "gaussian_noise", "gamma_correction", "contrast_enhancement", "majority",
    "confidence_weighted", "threshold_weighted", "baseline", "n", "c",
    "sigma", "gamma", "alpha", "beta", "slice_axis", "jitter", "flip_prob",
    "confidence", "constant_class", "label", "classes", "id", "image",
]
#: Values of one JSON type, to replace a value of that type with. An
#: integer may be as large as 10**9: a jitter stops at its fixed point, so
#: a run's time does not grow with it.
_LIKE = {
    bool: st.booleans(),
    int: st.integers(-3, 300) | st.just(10 ** 9),
    float: st.floats(-2.0, 300.0)
    | st.sampled_from([float("nan"), float("inf"), 1e-9, 1e9, 1e308]),
    # "\ud800", a lone surrogate, passes json.load but is not Unicode text.
    str: st.sampled_from([*_NAMES, "\ud800"])
    | st.text(alphabet="abcxyz_0. ", max_size=6),
}
_LEAVES = st.one_of(st.none(), *_LIKE.values())
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES), inner, max_size=3),
    max_leaves=5,
)


def _paths(doc, prefix=()):
    """The path of every value in JSON document ``doc``, itself included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, (*prefix, key))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three edits: a value replaced (by any value or
    by one of its own type) or deleted, or a key or item added."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "like", "delete", "add"]))
        if not path:
            doc = draw(_VALUES) if op == "replace" else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "replace":
            parent[path[-1]] = draw(_VALUES)
        elif op == "like":
            parent[path[-1]] = draw(_LIKE.get(type(parent[path[-1]]), _VALUES))
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(_NAMES))] = draw(_VALUES)
        else:
            parent.insert(path[-1], draw(_VALUES))
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A one-case dataset and a valid manifest, config and result for it."""
    root = tmp_path_factory.mktemp("boundary")
    manifest_path = write_phantom_dataset(root, n_cases=1, dims=(8, 8, 6), seed=5)
    config = {
        "backends": [
            {"kind": "noisy_oracle", "name": "n", "confidence": 0.9,
             "jitter": 1, "flip_prob": 0.1},
            {"kind": "constant", "name": "c"},
        ],
        "augmentations": [a.to_dict() for a in default_augmentations()],
        "voting": "threshold_weighted", "tau": 0.6, "seed": 7,
        "include_baseline": True, "jobs": 1, "process_jobs": 1,
    }
    result = run_segtta(RunConfig.from_dict(config), load_manifest(manifest_path))
    (root / "config.json").write_text(json.dumps(config))
    return {
        "root": root,
        "manifest": json.loads(manifest_path.read_text()),
        "config": config,
        "result": result.to_dict(),
    }


def _write(documents, doc) -> Path:
    path = documents["root"] / "mutated.json"
    path.write_text(json.dumps(doc))
    return path


def _check_cli(*argv):
    """Run the CLI; it must exit 0 or 1, and 1 with a named error unless
    every case failed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    text = err.getvalue()
    assert code in (0, 1)
    assert "Traceback" not in text
    if code == 1:
        assert text.startswith("error: ") or text.endswith("no case completed\n")


def _valid_or_named(load, path, expected):
    try:
        assert isinstance(load(path), expected)
    except SegTTAError:
        pass


_MUTATIONS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


class TestMutatedDocuments:
    @_MUTATIONS
    @given(data=st.data())
    def test_manifest(self, documents, data):
        path = _write(documents, data.draw(mutated(documents["manifest"])))
        _valid_or_named(load_manifest, path, DatasetManifest)
        _check_cli("run", "--config", documents["root"] / "config.json",
                   "--manifest", path)

    @_MUTATIONS
    @given(data=st.data())
    def test_config(self, documents, data):
        path = _write(documents, data.draw(mutated(documents["config"])))
        _valid_or_named(load_config, path, RunConfig)
        _check_cli("run", "--config", path,
                   "--manifest", documents["root"] / "manifest.json")

    @_MUTATIONS
    @given(data=st.data())
    def test_result(self, documents, data):
        path = _write(documents, data.draw(mutated(documents["result"])))
        _valid_or_named(RunResult.load, path, RunResult)
        _check_cli("report", "--result", path)
        _check_cli("report", "--result", path, "--format", "csv")

    @pytest.mark.parametrize("field, value, named", [
        ("failures", [[1, {"a": 2}]], "failure [1, {'a': 2}] is not [case, reason]"),
        ("failures", [["case", None]], "failure ['case', None] is not [case, reason]"),
        ("reference", "no such row", "field 'reference' 'no such row' names no variant"),
    ], ids=["failure-not-strings", "failure-reason-null", "reference-unknown"])
    def test_result_field_that_loads_but_is_wrong(self, documents, field, value, named):
        path = _write(documents, {**documents["result"], field: value})
        with pytest.raises(ConfigError) as raised:
            RunResult.load(path)
        assert named in str(raised.value)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["report", "--result", str(path)]) == 1
        assert err.getvalue() == f"error: {raised.value}\n"

    @pytest.mark.parametrize("mutate, named", [
        (lambda d: {**d, "per_case": {case: {**row, "ghost": row["fused"]}
                                      for case, row in d["per_case"].items()}},
         "per_case['case000'] has rows ['ghost'] that name no variant"),
        (lambda d: {**d, "fg_volume": {case: {**row, "ghost": row["fused"]}
                                       for case, row in d["fg_volume"].items()}},
         "fg_volume['case000'] has rows ['ghost'] that name no variant"),
        (lambda d: {**d, "aggregates": {**d["aggregates"],
                                        "ghost": d["aggregates"]["fused"]}},
         "aggregates has rows ['ghost'] that name no variant"),
        (lambda d: {**d, "fg_volume": {**d["fg_volume"],
                                       "ghost": d["fg_volume"]["case000"]}},
         "per_case and fg_volume hold different cases: ['ghost']"),
        (lambda d: {**d, "reference": "no such row"},
         "field 'reference' 'no such row' names no variant"),
        (lambda d: {**d, "failures": [["case", None]]},
         "failure ['case', None] is not [case, reason]"),
    ], ids=["per-case-variant", "fg-volume-variant", "aggregates-variant",
            "fg-volume-case", "reference-unknown", "failure-reason-null"])
    def test_result_rows_are_checked_on_both_paths(self, documents, mutate, named):
        # Once such rows loaded, and the report dropped them without a word.
        path = _write(documents, mutate(documents["result"]))
        with pytest.raises(ConfigError, match=re.escape(named)) as raised:
            RunResult.load(path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["report", "--result", str(path)]) == 1
        assert err.getvalue() == f"error: {raised.value}\n"
        valid = RunResult.from_dict(documents["result"])
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunResult(**mutate(vars(valid)))


def _external(command):
    return {"kind": "external", "name": "m", "command": command}


#: Bad records, each as a JSON document (a config for RunConfig.from_dict,
#: or one manifest case for load_manifest) and as a constructor call, with
#: the text both errors must hold.
_BAD_RECORDS = {
    "unknown-kind": ({"backends": [{"kind": "magic"}]},
                     lambda: BackendDescriptor("magic"), "'magic'"),
    "unused-field": ({"backends": [{"kind": "oracle", "jitter": 2}]},
                     lambda: BackendDescriptor("oracle", jitter=2), "does not use ['jitter']"),
    "no-output": ({"backends": [_external("model {input}")]},
                  lambda: RunConfig(backends=(BackendDescriptor(
                      **_external("model {input}")),)),
                  "'m' command has no {output}"),
    "unknown-placeholder": (
        {"backends": [_external("model {input} {output} {classe}")]},
        lambda: RunConfig(backends=(BackendDescriptor(
            **_external("model {input} {output} {classe}")),)),
        "'m' command has unknown placeholder {classe}"),
    "subset-number": ({"backends": [{"kind": "oracle", "name": "1"}],
                       "subset": [[1, "baseline"]]},
                      lambda: RunConfig(backends=(BackendDescriptor("oracle", name="1"),),
                                        subset=((1, "baseline"),)),
                      "'subset'"),
    "escaping-id": ([{"id": "../x", "image": "x.nii", "classes": 2}],
                    lambda: ManifestEntry("../x", "x.nii", 2), "case '../x' field 'id'"),
    "empty-label": ([{"id": "a", "image": "x.nii", "label": "", "classes": 2}],
                    lambda: ManifestEntry("a", "x.nii", 2, ""),
                    "case 'a' field 'label' is an empty path"),
    "string-classes": ([{"id": "a", "image": "x.nii", "classes": "2"}],
                       lambda: ManifestEntry("a", "x.nii", "2"), "classes'"),
}


@pytest.mark.parametrize("document, build, named", _BAD_RECORDS.values(),
                         ids=_BAD_RECORDS)
def test_bad_record_is_refused_alike_from_json_and_from_python(
        tmp_path, document, build, named):
    if isinstance(document, list):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SegTTAError) as from_json:
            load_manifest(path)
    else:
        with pytest.raises(SegTTAError) as from_json:
            RunConfig.from_dict(document)
    with pytest.raises(SegTTAError) as from_python:
        build()
    assert type(from_json.value) is type(from_python.value)
    assert named in str(from_json.value)
    assert named in str(from_python.value)


def test_unknown_key_is_refused_from_json_and_from_python():
    # A constructor never sees an unknown keyword: Python refuses the call.
    with pytest.raises(ConfigError, match=re.escape("config has unknown fields ['taus']")):
        RunConfig.from_dict({"backends": [{"kind": "oracle"}], "taus": [1]})
    with pytest.raises(TypeError, match="'taus'"):
        RunConfig(backends=(BackendDescriptor("oracle"),), taus=[1])
