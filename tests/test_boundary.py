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

from hypothesis import given, settings, strategies as st
import pytest

import segtta
from segtta import (
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
