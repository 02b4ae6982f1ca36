import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import numerics_gate as gate  # noqa: E402

SEEDS = (21, 22, 23, 24, 25, 26)
D_GAP = (1.0, 2.0, 3.0, 1.0, 2.0, 3.0)  # per seed; doubled at epoch 1
SIGMA_D_GAP_1 = statistics.stdev(2 * d for d in D_GAP)


def digest(seed, shift=0.0, violations=0, epochs=2, state=False):
    """Hand-made ``same_seed_digest.py`` output: the motion terms are 0 at
    epoch 0, as before the motion critic's threshold; ``shift`` moves d_gap
    and ``violations`` are counted at epoch 1.  With ``state`` each line
    carries a training-state hash, as the script prints now."""
    i = SEEDS.index(seed)
    lines = []
    for epoch in range(epochs):
        m = {"d_gap": D_GAP[i] * (epoch + 1) + (shift if epoch == 1 else 0.0),
             "gen_loss": 10.0 + i, "penalty": 0.1 * (i + 1), "epoch": epoch,
             "motion_gap": 0.0 if epoch == 0 else 5.0 + i,
             "motion_penalty": 0.0 if epoch == 0 else 0.5 + i, "steps": 4,
             "violations": violations if epoch == 1 else 0, "gamma": min(epoch, 1)}
        tag = f" state {epoch:064x}" if state else ""
        lines.append(f"epoch {epoch} sha256 {'ab' * 32}{tag} "
                     f"metrics {json.dumps(m, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def runs(shifts=None, violations=None):
    shifts = shifts or {}
    violations = violations or {}
    return {s: gate.parse_digest(digest(s, shifts.get(s, 0.0), violations.get(s, 0)))
            for s in SEEDS}


def test_identical_runs_pass():
    v = gate.verdict(runs(), runs())
    assert v.passed and v.median_shift == 0.0
    row = next(r for r in v.rows if (r.metric, r.epoch) == ("d_gap", 1))
    assert row.sigma == SIGMA_D_GAP_1


def test_shift_of_six_tenths_sigma_fails():
    v = gate.verdict(runs(), runs({23: 0.6 * SIGMA_D_GAP_1}))
    assert v.failures == [f"d_gap epoch 1 seed 23: shift 0.6 sigma > {gate.MAX_SHIFT}"]


def test_shifts_of_three_tenths_sigma_pass():
    v = gate.verdict(runs(), runs({23: 0.3 * SIGMA_D_GAP_1, 25: -0.3 * SIGMA_D_GAP_1}))
    assert v.passed, v.failures
    row = next(r for r in v.rows if (r.metric, r.epoch) == ("d_gap", 1))
    assert row.max_shift == pytest.approx(0.3)
    assert row.median_shift == 0.0


def test_a_tenth_sigma_on_every_value_fails_on_the_median():
    parent, change = runs(), runs()
    for epoch in range(2):
        for key in gate.METRICS:
            base = [parent[s][epoch][key] for s in SEEDS]
            if len(set(base)) > 1:
                for s in SEEDS:
                    change[s][epoch][key] += 0.1 * statistics.stdev(base)
    v = gate.verdict(parent, change)
    assert v.failures == [f"median shift 0.1 sigma > {gate.MAX_MEDIAN}"]


def test_metric_equal_on_every_seed_is_skipped():
    v = gate.verdict(runs(), runs())
    assert ("motion_gap", 0) in v.skipped and ("motion_penalty", 0) in v.skipped
    assert all(r.epoch == 1 for r in v.rows if r.metric.startswith("motion"))
    assert len(v.rows) == 2 * 5 - 2


def test_nonzero_violations_fail():
    v = gate.verdict(runs(), runs(violations={22: 3}))
    assert v.failures == ["violations 3 in epoch 1 of seed 22"]


def test_mismatched_runs_rejected():
    with pytest.raises(ValueError, match="same two or more seeds"):
        gate.verdict(runs(), {s: r for s, r in runs().items() if s != 21})
    short = runs()
    short[21] = short[21][:1]
    with pytest.raises(ValueError, match="number of epochs"):
        gate.verdict(runs(), short)


def test_malformed_digest_line_rejected():
    with pytest.raises(ValueError, match="not a digest line"):
        gate.parse_digest("epoch 0 metrics {}\n")
    with pytest.raises(ValueError, match="out of order"):
        gate.parse_digest(digest(21).splitlines()[1])


def test_state_hash_is_parsed_alongside_a_version_without_one():
    with_state, without = gate.parse_digest(digest(21, state=True)), gate.parse_digest(digest(21))
    assert [e.pop("state") for e in with_state] == [f"{epoch:064x}" for epoch in range(2)]
    assert with_state == without
    v = gate.verdict(runs(), {s: gate.parse_digest(digest(s, state=True)) for s in SEEDS})
    assert v.passed and v.median_shift == 0.0
    for bad in ("epoch 0 sha256 ab stat cd metrics {}", "epoch 0 sha256 ab state metrics {}",
                "epoch 0 sha256 ab state cd ef metrics {}"):
        with pytest.raises(ValueError, match="not a digest line"):
            gate.parse_digest(bad)
