"""Smoke test of scripts/make_figure_data.py on each of its panel families."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_figure_data.py"


@pytest.mark.parametrize(
    "family, written",
    [
        ("continuous", {"continuous_map.csv": "256 rows", "continuous_cuts.csv": "31 rows"}),
        ("spontaneous", {"spontaneous_theta.csv": "51 rows"}),
        ("husimi", {f"husimi_theta_{tag}.csv": "26x26" for tag in ("quarter", "half", "pi")}),
        ("pulsed", {"pulsed_map.csv": "256 rows", "pulsed_cuts.csv": "51 rows"}),
    ],
)
def test_fast_family_writes_its_files(family, written, tmp_path, monkeypatch, capsys):
    argv = [str(SCRIPT), "--fast", "--only", family, "--outdir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPT), run_name="__main__")
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"wrote {tmp_path / name} ({size})" for name, size in written.items()]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    for name, size in written.items():
        lines = (tmp_path / name).read_text().splitlines()
        n_rows = int(size.split()[0]) if size.endswith("rows") else int(size.split("x")[0])
        assert len(lines) == n_rows + 1  # header or Re(alpha) row


def test_pulses_family_writes_shaped_and_exponential_waveforms(tmp_path, monkeypatch, capsys):
    # the one panel that reaches every caller of the RK4 drive scan; --fast leaves it as it is
    argv = [str(SCRIPT), "--fast", "--only", "pulses", "--outdir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPT), run_name="__main__")
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"wrote {tmp_path / 'pulse_shapes.csv'} (400 rows)"
    assert [line.split(":")[0] for line in printed[:-1]] == ["case a", "case b"]
    for line in printed[:-1]:
        fields = dict(item.strip().split("=") for item in line.split(":")[1].split(","))
        assert float(fields["shaped W"]) >= float(fields["exponential W"]), line
    lines = (tmp_path / "pulse_shapes.csv").read_text().splitlines()
    assert lines[0] == "time,rabi_opt_a,rabi_exp_a,rabi_opt_b,rabi_exp_b"
    assert len(lines) == 401
