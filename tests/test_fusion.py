import threading
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from segtta import (
    BackendDescriptor,
    FusionInput,
    LabelMask,
    ProbabilityMap,
    RunConfig,
    Spacing,
    foreground_volume,
    fuse,
)
import segtta.cli
import segtta.config
import segtta.core
import segtta.fusion
import segtta.pipeline
from segtta.core import Memo
from segtta.errors import ConfigError, InconsistentMaps
from segtta.fusion import VOTING_MODES, fuse_groups

from conftest import brute_force_vote, dense, dyadic_prob_maps, random_dims


def pmap(per_class_rows, tag="m0"):
    """Map from a list of per-voxel probability vectors, shape (n, 1, 1, C)."""
    arr = np.asarray(per_class_rows, dtype=float)[:, None, None, :]
    return ProbabilityMap(arr, source_tag=tag)


class TestMajority:
    def test_single_map_is_argmax(self, rng):
        maps = dyadic_prob_maps(rng, 1, (3, 2, 2), 3)
        out = fuse(FusionInput(tuple(maps), mode="majority"))
        np.testing.assert_array_equal(out.labels, np.argmax(dense(maps[0]), axis=-1))

    def test_strict_majority(self):
        maps = (
            pmap([[0.1, 0.8, 0.1]], "a"),
            pmap([[0.1, 0.7, 0.2]], "b"),
            pmap([[0.2, 0.2, 0.6]], "c"),
        )
        out = fuse(FusionInput(maps, mode="majority"))
        assert out.labels[0, 0, 0] == 1

    def test_vote_tie_breaks_low(self):
        maps = (pmap([[0.1, 0.8, 0.1]], "a"), pmap([[0.1, 0.2, 0.7]], "b"))
        out = fuse(FusionInput(maps, mode="majority"))
        assert out.labels[0, 0, 0] == 1


class TestConfidenceWeighted:
    def test_identical_maps_give_their_argmax(self, rng):
        base = dyadic_prob_maps(rng, 1, (2, 2, 2), 3)[0]
        maps = tuple(base.retagged(f"m{i}") for i in range(3))
        out = fuse(FusionInput(maps, mode="confidence_weighted"))
        np.testing.assert_array_equal(out.labels, np.argmax(dense(base), axis=-1))

    def test_hand_worked_example(self):
        maps = (pmap([[0.9, 0.1]], "a"), pmap([[0.4, 0.6]], "b"))
        out = fuse(FusionInput(maps, mode="confidence_weighted"))
        # weights (0.9, 0.6); scores (1.05, 0.45) -> class 0
        assert out.labels[0, 0, 0] == 0

    def test_uniform_maps_tie_to_background(self):
        maps = tuple(pmap([[0.5, 0.5]], f"m{i}") for i in range(4))
        out = fuse(FusionInput(maps, mode="confidence_weighted"))
        assert out.labels[0, 0, 0] == 0


class TestThresholdWeighted:
    def test_default_tau_has_one_home(self):
        # The run config, the fusion input and ``segtta fuse --tau`` all
        # default to fusion's DEFAULT_TAU.
        assert segtta.config.DEFAULT_TAU is segtta.fusion.DEFAULT_TAU
        assert FusionInput(()).tau == segtta.fusion.DEFAULT_TAU
        args = segtta.cli._build_parser().parse_args(
            ["fuse", "--output", "fused.nii.gz", "map.nii"])
        assert args.tau == segtta.fusion.DEFAULT_TAU
        assert RunConfig(backends=(BackendDescriptor("oracle", name="o"),)).tau == (
            segtta.fusion.DEFAULT_TAU)

    def test_single_map_threshold_boundary(self):
        maps = (pmap([[0.3, 0.7]], "a"),)
        out = fuse(FusionInput(maps, tau=0.6))
        assert out.labels[0, 0, 0] == 1
        out = fuse(FusionInput(maps, tau=0.75))
        assert out.labels[0, 0, 0] == 0

    def test_unanimous_background(self, rng):
        probs = np.zeros((2, 2, 2, 3))
        probs[..., 0] = 1.0
        maps = tuple(ProbabilityMap(probs, source_tag=f"m{i}") for i in range(3))
        for tau in (0.1, 0.6, 1.0):
            out = fuse(FusionInput(maps, tau=tau))
            assert not out.labels.any()

    def test_low_tau_equals_confidence_weighted(self, rng):
        # max normalized score >= 1/C, so tau <= 1/C never binds.
        for _ in range(20):
            num_classes = int(rng.integers(2, 4))
            maps = tuple(dyadic_prob_maps(rng, 3, random_dims(rng), num_classes))
            gated = fuse(
                FusionInput(maps, mode="threshold_weighted", tau=1.0 / num_classes)
            )
            free = fuse(FusionInput(maps, mode="confidence_weighted"))
            np.testing.assert_array_equal(gated.labels, free.labels)

    def test_unanimity_property(self, rng):
        # Every map's argmax is class c with probability >= tau -> output c.
        tau = 0.6
        probs = np.zeros((4, 4, 1, 3))
        probs[..., 2] = 0.7
        probs[..., 0] = 0.2
        probs[..., 1] = 0.1
        maps = tuple(ProbabilityMap(probs, source_tag=f"m{i}") for i in range(3))
        out = fuse(FusionInput(maps, tau=tau))
        assert (out.labels == 2).all()

    def test_tau_monotone_foreground(self, rng):
        spacing = Spacing(1, 1, 1)
        for _ in range(30):
            maps = tuple(
                dyadic_prob_maps(
                    rng, int(rng.integers(1, 5)), random_dims(rng),
                    int(rng.integers(2, 4)),
                )
            )
            taus = sorted(rng.uniform(0.05, 1.0, size=3))
            volumes = [
                foreground_volume(
                    fuse(FusionInput(maps, tau=t)), spacing
                )
                for t in taus
            ]
            assert volumes[0] >= volumes[1] >= volumes[2]


class TestSharedProperties:
    @pytest.mark.parametrize("mode", ["majority", "confidence_weighted",
                                      "threshold_weighted"])
    def test_brute_force_equivalence(self, rng, mode):
        for _ in range(150):
            maps = dyadic_prob_maps(
                rng, int(rng.integers(1, 5)), random_dims(rng),
                int(rng.integers(2, 4)),
            )
            tau = float(rng.uniform(0.05, 1.0))
            got = fuse(FusionInput(tuple(maps), mode=mode, tau=tau))
            expected = brute_force_vote(maps, mode, tau)
            np.testing.assert_array_equal(got.labels, expected)

    @pytest.mark.parametrize("mode", ["majority", "confidence_weighted",
                                      "threshold_weighted"])
    def test_permutation_invariance(self, rng, mode):
        maps = dyadic_prob_maps(rng, 4, (4, 3, 2), 3)
        base = fuse(FusionInput(tuple(maps), mode=mode, tau=0.55))
        for _ in range(5):
            perm = list(rng.permutation(4))
            shuffled = tuple(maps[i] for i in perm)
            again = fuse(FusionInput(shuffled, mode=mode, tau=0.55))
            np.testing.assert_array_equal(base.labels, again.labels)

    @pytest.mark.parametrize("mode", ["majority", "confidence_weighted",
                                      "threshold_weighted"])
    def test_duplicating_every_map_changes_nothing(self, rng, mode):
        # Doubling the ensemble scales every vote and weight by 2.
        maps = dyadic_prob_maps(rng, 3, (3, 3, 2), 3)
        copies = tuple(m.retagged(f"copy-{m.source_tag}") for m in maps)
        single = fuse(FusionInput(tuple(maps), mode=mode, tau=0.6))
        doubled = fuse(FusionInput(tuple(maps) + copies, mode=mode, tau=0.6))
        np.testing.assert_array_equal(single.labels, doubled.labels)

    @pytest.mark.parametrize("mode", ["majority", "confidence_weighted",
                                      "threshold_weighted"])
    def test_top_class_of_the_largest_class_count(self, mode):
        # 256 classes is the bound; class 255 must fit the uint8 labels.
        row = np.full(256, 0.1 / 255)
        row[255] = 0.9
        out = fuse(FusionInput((pmap([row, row], "a"),), mode=mode, tau=0.6))
        assert (out.labels == 255).all() and out.num_classes == 256

    def test_spilled_maps_fuse_as_the_maps_in_memory(self, rng, tmp_path):
        # float32 maps over 3 slabs, one of them off by 5e-4 so that it is
        # renormalized, fused in two groups at two taus.
        dims = (70, 36, 30)
        assert len(segtta.core.slabs(dims)) == 3
        maps, spilled = [], []
        for i in range(4):
            probs = rng.dirichlet([1.0, 1.0, 1.0], size=dims).astype(np.float32)
            if i == 1:
                probs[5, 5, 5] *= 1 + 5e-4
            maps.append(ProbabilityMap(probs, source_tag=f"m{i}"))
            spilled.append(ProbabilityMap(probs, f"m{i}", directory=tmp_path))
        keys = [0, 1, 0, 1]
        decisions = [(frozenset({0}), 0.6), (frozenset({0, 1}), 0.4)]
        for mode in VOTING_MODES:
            want = fuse_groups(mode, maps, keys, decisions)
            got = fuse_groups(mode, spilled, keys, decisions)
            assert [m.labels.tobytes() for m in got] == [m.labels.tobytes() for m in want]

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_groups_equal_the_oracle_across_slabs(self, data):
        # Maps on the k/16 grid (so every sum is exact) fused in 1-3 keyed
        # groups over at least 3 slabs, the last partial; each group's mask
        # must be the brute-force vote of the maps its keys select.
        mode = data.draw(st.sampled_from(VOTING_MODES))
        num_classes = data.draw(st.integers(2, 8))
        planes = data.draw(st.integers(2, 3))  # per slab
        whole, rest = data.draw(st.integers(2, 3)), data.draw(st.integers(1, planes - 1))
        dims = (planes * whole + rest, data.draw(st.integers(1, 3)),
                data.draw(st.integers(1, 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def grid(size):
            return rng.multinomial(16, [1 / num_classes] * num_classes, size=size) / 16

        maps = []
        for i in range(data.draw(st.integers(1, 6))):
            form = data.draw(st.sampled_from(["float64", "float32", "rows"]))
            if form == "rows":
                rows = int(rng.integers(1, 5))
                maps.append(ProbabilityMap.from_rows(
                    grid(rows), rng.integers(0, rows, size=dims), source_tag=f"m{i}"))
            else:  # a map read from a file is held as float32
                maps.append(ProbabilityMap(grid(dims).astype(form),
                                           source_tag=f"m{i}"))
        keys = [data.draw(st.integers(0, 2)) for _ in maps]
        some_keys = st.sets(st.sampled_from(sorted(set(keys))), min_size=1)
        decisions = [
            (frozenset(data.draw(some_keys)), data.draw(st.floats(0.01, 1.0)))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segtta.core, "SLAB_VOXELS", planes * dims[1] * dims[2])
            cuts = segtta.core.slabs(dims)
            assert len(cuts) >= 3 and cuts[-1][1] - cuts[-1][0] < planes
            masks = fuse_groups(mode, maps, keys, decisions)
        for (group, tau), mask in zip(decisions, masks):
            held = [m for m, key in zip(maps, keys) if key in group]
            np.testing.assert_array_equal(mask.labels, brute_force_vote(held, mode, tau))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_order_of_the_maps_changes_no_byte(self, data):
        # Rows on the k/10 grid: exact scores often tie with each other or
        # with tau, and which way the rounded sums of three or more votes
        # break such a tie depends on the order they are added in.
        # fuse_groups counts the maps in tag order, so any order of the
        # (map, key) pairs gives the same masks.
        mode = data.draw(st.sampled_from(VOTING_MODES))
        num_classes = data.draw(st.integers(2, 4))
        dims = (data.draw(st.integers(4, 8)), 3, 3)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        count = data.draw(st.integers(3, 8))
        tags = data.draw(st.permutations([f"m{i}" for i in range(count)]))
        pairs = []
        for tag in tags:
            table = rng.multinomial(10, [1 / num_classes] * num_classes, size=4) / 10
            pairs.append((ProbabilityMap.from_rows(table, rng.integers(0, 4, size=dims),
                                                   source_tag=tag),
                          data.draw(st.integers(0, 1))))
        keys = sorted({key for _, key in pairs})
        some_keys = st.sets(st.sampled_from(keys), min_size=1)
        taus = st.sampled_from([0.3, 0.4, 0.5, 0.6, 0.7])
        decisions = [(frozenset(data.draw(some_keys)), data.draw(taus))
                     for _ in range(data.draw(st.integers(1, 3)))]
        shuffled = data.draw(st.permutations(pairs))
        want = fuse_groups(mode, *zip(*pairs), decisions)
        got = fuse_groups(mode, *zip(*shuffled), decisions)
        assert [m.labels.tobytes() for m in got] == [m.labels.tobytes() for m in want]


def soft_table(num_classes, confidence):
    """A noisy member's row table: ``confidence`` on the diagonal."""
    table = np.full((num_classes, num_classes), (1 - confidence) / (num_classes - 1))
    np.fill_diagonal(table, confidence)
    return table


def row_maps(rng, tables, views, dims):
    """One row-table map per (table, view), tagged ``b<i>|<view>``, with
    its view as key, and the same maps held dense."""
    maps, held, keys = [], [], []
    for i, table in enumerate(tables):
        for view in views:
            labels = rng.integers(0, len(table), size=dims)
            maps.append(ProbabilityMap.from_rows(table, labels, f"b{i}|{view}"))
            held.append(ProbabilityMap(np.take(table, labels, axis=0), f"b{i}|{view}"))
            keys.append(view)
    return maps, held, keys


@pytest.fixture
def chains(monkeypatch):
    """An empty chain memo for the test, and a list of the calls that took
    the label-space path."""
    monkeypatch.setattr(segtta.fusion, "_chains", Memo(segtta.fusion.CHAINS_KEPT))
    fused, fuse_states = [], segtta.fusion._fuse_states

    def counted(*args):
        fused.append(args[0])
        return fuse_states(*args)

    monkeypatch.setattr(segtta.fusion, "_fuse_states", counted)
    return fused


class TestLabelSpace:
    """Row-table maps fuse through interned states; the masks must be the
    bytes the value path gives for the same maps held dense."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_row_tables_fuse_as_their_dense_maps(self, data):
        num_classes = data.draw(st.integers(2, 4))
        # Confidences that tie, and votes that reach these taus exactly.
        confidences = st.sampled_from([2 / 3, 0.75, 1.0, 0.9])
        tables = [soft_table(num_classes, data.draw(confidences))
                  for _ in range(data.draw(st.integers(1, 4)))]
        views = [f"v{i}" for i in range(data.draw(st.integers(1, 4)))]
        mode = data.draw(st.sampled_from(VOTING_MODES))
        taus = st.sampled_from([1 / 3, 0.5, 1.0, 2 / 3, 0.6, 0.75])
        view_sets = [frozenset(views)] + [
            frozenset(data.draw(st.sets(st.sampled_from(views), min_size=1)))
            for _ in range(data.draw(st.integers(0, 2)))]
        if len(views) >= 2:
            view_sets.append(frozenset(views[:2]))
        decisions = [(group, data.draw(taus)) for group in view_sets]
        dims = (data.draw(st.integers(5, 9)), data.draw(st.integers(2, 3)), 3)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        maps, held, keys = row_maps(rng, tables, views, dims)
        bound = data.draw(st.sampled_from([None, None, 1, 3, 40]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segtta.core, "SLAB_VOXELS", 2 * dims[1] * dims[2])
            patch.setattr(segtta.fusion, "_chains", Memo(segtta.fusion.CHAINS_KEPT))
            if bound is not None:
                patch.setattr(segtta.fusion, "CHAIN_PAIRS", bound)
            fused = []
            patch.setattr(segtta.fusion, "_fuse_states",
                          lambda *args, run=segtta.fusion._fuse_states:
                          fused.append(run(*args)))
            got = fuse_groups(mode, maps, keys, decisions)
            if bound is None and len(tables) <= 2:
                assert fused  # 1225 states at most: within the bounds
            if bound == 1:  # a first step has C >= 2 (state, row) pairs
                assert not fused
        want = fuse_groups(mode, held, keys, decisions)
        assert [m.labels.tobytes() for m in got] == [m.labels.tobytes() for m in want]

    def test_run_shaped_call_interns_few_states(self, rng, chains):
        # 5 members at confidence 0.9 over 5 views, as the benchmark runs
        # them: 102 states after the 25 maps of the full view set.
        table = soft_table(2, 0.9)
        views = [f"v{i}" for i in range(5)]
        maps, held, keys = row_maps(rng, [table] * 5, views, (6, 4, 3))
        decisions = [(frozenset(views), 0.6)] + [(frozenset({v}), 0.6) for v in views]
        got = fuse_groups("threshold_weighted", maps, keys, decisions)
        want = fuse_groups("threshold_weighted", held, keys, decisions)
        assert [m.labels.tobytes() for m in got] == [m.labels.tobytes() for m in want]
        assert len(chains) == 1
        # The five one-view groups vote the same rows: one chain serves them.
        assert len(segtta.fusion._chains) == 2
        checked = maps[0].row_table[0]
        key = ("threshold_weighted", ((checked.shape, checked.tobytes()),) * 25)
        tables, sums = segtta.fusion._chains.get(key, lambda: None)
        assert sums.shape == (3, 102) and len(tables) == 25
        assert all(t.dtype == np.uint16 and not t.flags.writeable for t in tables)

    def test_equal_tables_share_one_chain(self, rng, chains, monkeypatch):
        # Keyed by content: a second, equal table, checked anew into another
        # array, finds the first one's chain.
        views = ["a", "b"]
        first, _, keys = row_maps(rng, [soft_table(3, 0.75)], views, (4, 3, 3))
        monkeypatch.setattr(segtta.core, "_checked_rows",
                            Memo(segtta.core.ROW_TABLES_KEPT))
        second, _, _ = row_maps(rng, [soft_table(3, 0.75)], views, (4, 3, 3))
        assert first[0].row_table[0] is not second[0].row_table[0]
        decisions = [(frozenset(views), 0.5)]
        fuse_groups("majority", first, keys, decisions)
        fuse_groups("majority", second, keys, decisions)
        assert len(chains) == 2 and len(segtta.fusion._chains) == 1
        # Another mode is another chain.
        fuse_groups("confidence_weighted", second, keys, decisions)
        assert len(segtta.fusion._chains) == 2

    def test_kept_keys_hold_each_table_once(self, rng, chains):
        # 25 maps share 5 tables of 256 classes. The full view set's chain
        # is out of bounds, so the value path fuses, but its key is kept: it
        # must reach one bytes copy of each table, not one per map.
        tables = [soft_table(256, 0.5 + i / 10) for i in range(5)]
        views = [f"v{i}" for i in range(5)]
        maps, held, keys = row_maps(rng, tables, views, (4, 4, 4))
        decisions = [(frozenset(views), 0.6)] + [(frozenset({v}), 0.6) for v in views]
        got = fuse_groups("threshold_weighted", maps, keys, decisions)
        fuse_groups("threshold_weighted", maps, keys, decisions)
        parts = {id(part): part for _, key in segtta.fusion._chains._entries
                 for _, part in key}
        assert len(segtta.fusion._chains) == 1 and not chains
        assert sum(len(part) for part in parts.values()) <= sum(t.nbytes for t in tables)
        want = fuse_groups("threshold_weighted", held, keys, decisions)
        assert [m.labels.tobytes() for m in got] == [m.labels.tobytes() for m in want]

    def test_chains_are_bounded(self, rng, chains):
        kept = segtta.fusion.CHAINS_KEPT
        for i in range(kept + 5):
            maps, _, keys = row_maps(rng, [soft_table(2, 0.6 + i / 100)], ["v"],
                                     (2, 2, 2))
            fuse_groups("threshold_weighted", maps, keys, [(frozenset({"v"}), 0.6)])
            assert len(segtta.fusion._chains) <= kept
        assert len(chains) == kept + 5

    def test_threads_fuse_identical_masks(self, rng, chains):
        views = [f"v{i}" for i in range(3)]
        tables = [soft_table(3, 0.75), soft_table(3, 0.9)]
        maps, held, keys = row_maps(rng, tables, views, (12, 6, 5))
        decisions = [(frozenset(views), 0.5), (frozenset(views[:2]), 1 / 3)]
        want = [m.labels.tobytes() for m in
                fuse_groups("threshold_weighted", held, keys, decisions)]
        start, got, errors = threading.Barrier(2), [], []

        def work():
            try:
                start.wait()
                for _ in range(5):
                    got.append([m.labels.tobytes() for m in fuse_groups(
                        "threshold_weighted", maps, keys, decisions)])
            except Exception as e:  # reported by the main thread
                errors.append(e)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(got) == 10 and all(masks == want for masks in got)
        assert len(chains) == 10

    def test_a_value_held_map_sends_the_call_to_the_value_path(self, rng, chains):
        views = ["a", "b"]
        maps, held, keys = row_maps(rng, [soft_table(2, 0.9)], views, (4, 3, 3))
        mixed = maps[:1] + held[1:]
        decisions = [(frozenset(views), 0.6)]
        got = fuse_groups("threshold_weighted", mixed, keys, decisions)
        want = fuse_groups("threshold_weighted", held, keys, decisions)
        assert got[0].labels.tobytes() == want[0].labels.tobytes()
        assert not chains


class TestStreamingMemory:
    @pytest.mark.parametrize("mode", ["majority", "confidence_weighted",
                                      "threshold_weighted"])
    def test_peak_independent_of_ensemble_size(self, rng, mode):
        # A stack of the 16 maps, or any N-way temporary, would need 16x.
        maps = tuple(dyadic_prob_maps(rng, 16, (32, 32, 16), 2))
        input = FusionInput(maps, mode=mode, tau=0.6)
        one_map = dense(maps[0]).nbytes
        tracemalloc.start()
        try:
            fuse(input)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * one_map


class TestValidation:
    # FusionInput only holds its fields: fuse_groups checks them, so these
    # fail in fuse, as they would in any other call.
    def test_empty_maps(self):
        with pytest.raises(InconsistentMaps,
                           match="^fusion input needs at least one probability map$"):
            fuse(FusionInput(()))

    def test_dims_mismatch(self, rng):
        a = dyadic_prob_maps(rng, 1, (2, 2, 2), 2)[0]
        b = dyadic_prob_maps(rng, 1, (2, 2, 3), 2)[0].retagged("m1")
        with pytest.raises(InconsistentMaps, match=r"map 'm1' has dims \(2, 2, 3\)"):
            fuse(FusionInput((a, b)))

    def test_class_mismatch(self, rng):
        a = dyadic_prob_maps(rng, 1, (2, 2, 2), 2)[0]
        b = dyadic_prob_maps(rng, 1, (2, 2, 2), 3)[0].retagged("m1")
        with pytest.raises(InconsistentMaps, match="map 'm1' has .* and 3 classes"):
            fuse(FusionInput((a, b)))

    def test_invalid_tau(self, rng):
        maps = tuple(dyadic_prob_maps(rng, 1, (2, 2, 2), 2))
        for tau in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match=rf"^tau={tau!r} must be in \(0, 1\]$"):
                fuse(FusionInput(maps, tau=tau))

    def test_fusion_input_only_holds_its_fields(self):
        held = FusionInput([], mode="plurality", tau=2.0)
        assert (held.maps, held.mode, held.tau) == ((), "plurality", 2.0)

    @pytest.mark.parametrize("build", [
        lambda mode, maps: RunConfig(backends=(BackendDescriptor("oracle"),),
                                     voting=mode),
        lambda mode, maps: fuse(FusionInput(maps, mode=mode)),
        lambda mode, maps: fuse_groups(mode, maps, [0], [(frozenset({0}), 0.6)]),
    ], ids=["RunConfig", "FusionInput", "fuse_groups"])
    def test_unknown_mode_names_it(self, rng, build):
        maps = tuple(dyadic_prob_maps(rng, 1, (2, 2, 2), 2))
        with pytest.raises(ConfigError, match="'plurality'"):
            build("plurality", maps)

    def test_fuse_groups_rejects_no_maps(self):
        with pytest.raises(InconsistentMaps, match="needs at least one probability map"):
            fuse_groups("majority", [], [], [])

    @pytest.mark.parametrize("mode", VOTING_MODES)
    @pytest.mark.parametrize("tau", [0.0, 1.5, True, float("inf"), "0.6"])
    def test_every_mode_rejects_a_bad_tau(self, rng, mode, tau):
        maps = dyadic_prob_maps(rng, 2, (2, 2, 2), 2)
        with pytest.raises(ConfigError, match=f"^tau={tau!r} must be"):
            fuse(FusionInput(tuple(maps), mode=mode, tau=tau))
        with pytest.raises(ConfigError, match=f"^tau={tau!r} must be"):
            fuse_groups(mode, maps, [0, 1], [(frozenset({0, 1}), tau)])

    @pytest.mark.parametrize("entry", ["fuse", "fuse_groups", "sweep", "RunConfig"])
    def test_tau_is_any_real_number_but_a_bool(self, rng, entry, monkeypatch):
        # numpy numbers are taus as their values; True is not tau = 1.
        maps = dyadic_prob_maps(rng, 2, (2, 2, 2), 2)
        swept = []
        monkeypatch.setattr(segtta.pipeline, "_run_variants",
                            lambda config, manifest, variants, **kw: swept.extend(variants))
        calls = {
            "fuse": lambda tau: fuse(FusionInput(tuple(maps), tau=tau)),
            "fuse_groups": lambda tau: fuse_groups(
                "threshold_weighted", maps, [0, 0], [(frozenset({0}), tau)]),
            "sweep": lambda tau: segtta.pipeline.run_threshold_sweep(
                RunConfig(backends=(BackendDescriptor("oracle"),)), None, [tau]),
            "RunConfig": lambda tau: RunConfig(
                backends=(BackendDescriptor("oracle"),), tau=tau),
        }
        taken = [calls[entry](tau) for tau in (np.float32(0.5), np.int64(1))]
        if entry == "sweep":
            assert [(name, tau) for name, _, tau in swept] == [
                ("tau=0.5", 0.5), ("tau=1", 1.0)]
            assert all(type(tau) is float for _, _, tau in swept)
        if entry == "RunConfig":
            assert [config.tau for config in taken] == [0.5, 1]
            assert [type(config.tau) for config in taken] == [float, int]
        for tau in (True, 1.5):
            with pytest.raises(ConfigError, match=f"tau.*{tau!r}"):
                calls[entry](tau)

    def test_fuse_groups_rejects_inconsistent_maps(self, rng):
        a = dyadic_prob_maps(rng, 1, (2, 2, 2), 2)[0]
        b = dyadic_prob_maps(rng, 1, (2, 2, 2), 3)[0].retagged("m1")
        with pytest.raises(InconsistentMaps, match="map 'm1' has .*; map 'm0' has"):
            fuse_groups("majority", [a, b], [0, 0], [(frozenset({0}), 0.6)])

    def test_group_without_a_map_is_rejected(self, rng):
        maps = dyadic_prob_maps(rng, 2, (2, 2, 2), 2)
        with pytest.raises(InconsistentMaps, match=r"group \[2\] holds no"):
            fuse_groups("confidence_weighted", maps, [0, 1],
                        [(frozenset({0, 1}), 0.6), (frozenset({2}), 0.6)])

    @pytest.mark.parametrize("tau", [0.0, 1.5, float("nan"), "0.6"],
                             ids=["zero", "above-one", "nan", "string"])
    def test_threshold_decision_rejects_bad_tau(self, rng, tau):
        maps = dyadic_prob_maps(rng, 2, (2, 2, 2), 2)
        with pytest.raises(ConfigError, match=rf"^tau={tau!r} must be in \(0, 1\]$"):
            fuse_groups("threshold_weighted", maps, [0, 1],
                        [(frozenset({0}), 0.6), (frozenset({0, 1}), tau)])


class TestForegroundVolume:
    def test_empty_mask(self):
        mask = LabelMask(np.zeros((3, 3, 3), dtype=np.uint8), 2)
        assert foreground_volume(mask, Spacing(1, 1, 1)) == 0.0

    def test_unit_spacing(self):
        labels = np.zeros((5, 5, 5), dtype=np.uint8)
        labels.flat[:10] = 1
        mask = LabelMask(labels, 2)
        assert foreground_volume(mask, Spacing(1, 1, 1)) == 10.0

    def test_anisotropic_spacing(self):
        labels = np.zeros((5, 5, 5), dtype=np.uint8)
        labels.flat[:10] = 1
        mask = LabelMask(labels, 2)
        assert foreground_volume(mask, Spacing(0.5, 0.5, 2.0)) == pytest.approx(5.0)
