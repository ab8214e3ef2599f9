import csv
import io
from pathlib import Path
import re

import pytest

from segtta import MetricReport, RunResult, emit_report, render
from segtta.errors import IoFailure

GOLDEN_DIR = Path(__file__).parent / "data"


def report(iou, dice, hd, per_class=None):
    per_class = per_class or {1: iou}
    per_dice = {c: 2 * v / (1 + v) for c, v in per_class.items()}
    return MetricReport(
        per_class_iou=per_class,
        per_class_dice=per_dice,
        miou=iou,
        mdice=dice,
        aiou=iou,
        adice=dice,
        hd95_mm=hd,
    )


@pytest.fixture
def fixture_result():
    """A small hand-checked two-class result with two variants."""
    r_base_a = report(0.50, 2 * 0.5 / 1.5, 4.0)
    r_base_b = report(0.70, 2 * 0.7 / 1.7, 2.0)
    r_fused_a = report(0.60, 2 * 0.6 / 1.6, 3.0)
    r_fused_b = report(0.80, 2 * 0.8 / 1.8, 1.0)
    per_case = {
        "case000": {"baseline": r_base_a, "fused": r_fused_a},
        "case001": {"baseline": r_base_b, "fused": r_fused_b},
    }
    fg = {
        "case000": {"baseline": 120.0, "fused": 100.0},
        "case001": {"baseline": 260.0, "fused": 240.0},
    }
    aggregates = {
        "baseline": {
            "miou": 0.60, "mdice": (2 * 0.5 / 1.5 + 2 * 0.7 / 1.7) / 2,
            "aiou": 0.60, "adice": (2 * 0.5 / 1.5 + 2 * 0.7 / 1.7) / 2,
            "hd95": 3.0, "hd95_undefined": 0, "n_cases": 2, "fg_mm3": 190.0,
        },
        "fused": {
            "miou": 0.70, "mdice": (2 * 0.6 / 1.6 + 2 * 0.8 / 1.8) / 2,
            "aiou": 0.70, "adice": (2 * 0.6 / 1.6 + 2 * 0.8 / 1.8) / 2,
            "hd95": 2.0, "hd95_undefined": 0, "n_cases": 2, "fg_mm3": 170.0,
        },
    }
    return RunResult(
        dataset="phantom-demo",
        num_classes=2,
        variants=("baseline", "fused"),
        reference="baseline",
        per_case=per_case,
        fg_volume=fg,
        aggregates=aggregates,
        failures=(),
        config={"voting": "threshold_weighted"},
        timings={},
    )


class TestGolden:
    def test_markdown_matches_golden(self, fixture_result):
        assert render(fixture_result, "markdown") == (
            GOLDEN_DIR / "golden_report.md"
        ).read_text()

    def test_csv_matches_golden(self, fixture_result):
        assert render(fixture_result, "csv") == (
            GOLDEN_DIR / "golden_report.csv"
        ).read_text()


class TestRendering:
    def test_formats_agree_numerically(self, fixture_result):
        rows = list(csv.DictReader(io.StringIO(render(fixture_result, "csv"))))
        markdown = render(fixture_result, "markdown")
        for row in rows:
            for key in ("IoU", "Dice", "HD95", "FG_mm3"):
                if row[key]:
                    assert f" {row[key]} " in markdown

    def test_deltas_carry_sign(self, fixture_result):
        text = render(fixture_result, "csv")
        assert "+10.00" in text  # fused IoU is ten points above baseline
        assert "-1.00" in text   # fused HD95 is 1 mm below baseline

    def test_two_class_column_order(self, fixture_result):
        header = render(fixture_result, "csv").splitlines()[0]
        assert header.startswith("scope,case,variant,IoU,Dice,HD95")

    def test_multiclass_column_order(self, fixture_result):
        from dataclasses import replace

        multi = replace(fixture_result, num_classes=3)
        header = render(multi, "csv").splitlines()[0]
        assert header.startswith("scope,case,variant,mIoU,aIoU,mDice,aDice,HD95")

    def test_empty_result_is_header_only(self, fixture_result):
        from dataclasses import replace

        empty = replace(
            fixture_result, per_case={}, fg_volume={}, aggregates={}, failures=()
        )
        lines = render(empty, "csv").splitlines()
        assert len(lines) == 1

    def test_undefined_hd95_rendered_blank(self, fixture_result):
        broken = report(0.5, 2 * 0.5 / 1.5, None)
        fixture_result.per_case["case000"]["fused"] = broken
        text = render(fixture_result, "csv")
        row = [r for r in text.splitlines() if r.startswith("case,case000,fused")]
        assert row and row[0].split(",")[5] == ""

    def test_emit_writes_file(self, fixture_result, tmp_path):
        path = emit_report(fixture_result, "markdown", tmp_path / "r.md")
        assert path.read_text() == render(fixture_result, "markdown")

    def test_report_and_result_share_one_writer(self, fixture_result, tmp_path):
        # Each makes its directory, and names the path it cannot write.
        emit_report(fixture_result, "csv", tmp_path / "a" / "r.csv")
        fixture_result.save(tmp_path / "b" / "r.json")
        assert RunResult.load(tmp_path / "b" / "r.json") == fixture_result
        assert (tmp_path / "a" / "r.csv").read_text() == render(fixture_result, "csv")
        blocker = tmp_path / "a" / "r.csv"
        for write in (lambda path: emit_report(fixture_result, "csv", path),
                      fixture_result.save):
            with pytest.raises(IoFailure, match=re.escape(
                    f"cannot write {blocker / 'r'}: ")):
                write(blocker / "r")

    def test_unknown_format(self, fixture_result):
        with pytest.raises(ValueError):
            render(fixture_result, "html")
