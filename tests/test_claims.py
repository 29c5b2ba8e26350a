"""The paper's qualitative claims, checked end to end at tiny scale.

This is the shape-level regression net: a change that flips any
paper-level conclusion (who wins, which way a trend goes) fails here even
if every unit oracle still passes.
"""

import pytest

from repro.harness.claims import run_claims, main


@pytest.fixture(scope="module")
def results():
    return run_claims(preset="tiny")


def test_every_claim_holds(results):
    failed = [r for r in results if not r.passed]
    details = "\n".join(f"{r.claim_id}: {r.detail}" for r in failed)
    assert not failed, f"paper-shape claims failed:\n{details}"


def test_all_figures_are_covered(results):
    ids = {r.claim_id for r in results}
    for prefix in ("fig8", "fig9", "fig10", "fig11", "weather"):
        assert any(i.startswith(prefix) for i in ids), prefix


def test_fig11_detail_names_every_scale_point(results):
    from repro.harness.fig11_scalability import PRESETS

    (fig11,) = [r for r in results if r.claim_id == "fig11-scaling"]
    for n_rows, _ in PRESETS["tiny"]["points"]:
        assert f"{n_rows} rows " in fig11.detail


def test_main_prints_and_returns_zero(results, capsys, monkeypatch):
    import repro.harness.claims as claims_module

    monkeypatch.setattr(claims_module, "run_claims", lambda preset: results)
    assert main(["--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "claims hold" in out


def test_main_reports_failures(capsys, monkeypatch):
    import repro.harness.claims as claims_module
    from repro.harness.claims import ClaimResult

    fake = [ClaimResult("x", "a fake failing claim", False, "because")]
    monkeypatch.setattr(claims_module, "run_claims", lambda preset: fake)
    assert main(["--preset", "tiny"]) == 1
    assert "FAIL" in capsys.readouterr().out
