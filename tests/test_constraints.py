import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhpose import autodiff as ad
from dhpose import constraints as ct
from dhpose import skeleton as sk
from oracles import param_rest_ref


# constraint-table defects -> what the parse error says after the file name
DAMAGED_TABLES = {
    "missing": r": parse error at line \d+: param 6 given but param 5 is missing",
    "empty": r": parse error: no param lines",
    "duplicate": r": parse error at line \d+: param 3 already given at line \d+",
    "negative": r": parse error at line \d+: negative param id -1",
    "kind": r": parse error at line 7: kind must be 'angle' or 'length', got 'angel'",
    "swapped": r": parse error at line 7: min must be below max for spine_pitch",
    "equal": r": parse error at line 7: min must be below max for spine_pitch",
    "knee": r": parse error at line 20: knee bounds for l_knee_flex must lie within \[-pi, 0\]",
    "renamed knee": r": parse error at line 20: knee bounds for l_leg_flex must lie within "
                    r"\[-pi, 0\]",
    "length as angle": r": parse error at line 44: param 40 is 'angle': ids 0\.\.32 are angles, "
                       r"33\.\.47 lengths",
    "short": r": parse error: 47 params; the table needs 48",
}

# defect -> (param id, the line that replaces it)
BAD_ENTRIES = {
    "kind": (3, "param 3 spine_pitch angel -30 45"),
    "swapped": (3, "param 3 spine_pitch angle 45 -30"),
    "equal": (3, "param 3 spine_pitch angle 45 45"),
    "knee": (16, "param 16 l_knee_flex angle -180 10"),
    "renamed knee": (16, "param 16 l_leg_flex angle -180 60"),
    "length as angle": (40, "param 40 r_femur_len angle -0.09 0.09"),
}


def damaged_table(defect):
    """The shipped table's text with one ``DAMAGED_TABLES`` defect."""
    lines = ct.table_to_text(ct.default_constraint_table()).splitlines()
    params = [line for line in lines if line.startswith("param ")]
    if defect == "missing":
        lines.remove(params[5])
    elif defect == "empty":
        lines = [line for line in lines if line not in params]
    elif defect == "duplicate":
        lines.append(params[3])
    elif defect == "short":
        lines.remove(params[47])
    elif defect == "negative":
        lines.append("param -1 extra angle -10 10")
    else:
        i, line = BAD_ENTRIES[defect]
        lines[lines.index(params[i])] = line
    return "\n".join(lines) + "\n"


class TestSquash:
    def test_zero_raw_gives_midpoint(self, table):
        with ad.Tape() as tape:
            out = ct.squash(tape.const(np.zeros(48)), table.lo, table.hi).values
        assert np.allclose(out, (table.lo + table.hi) / 2, atol=1e-15)

    def test_knee_midpoint_is_minus_quarter_turn(self, table):
        with ad.Tape() as tape:
            out = ct.squash(tape.const(np.zeros(48)), table.lo, table.hi).values
        knee = table.id_of("l_knee_flex")
        assert out[knee] == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_saturation_towards_bounds(self, table):
        with ad.Tape() as tape:
            hi = ct.squash(tape.const(np.full(48, 20.0)), table.lo, table.hi).values
            lo = ct.squash(tape.const(np.full(48, -20.0)), table.lo, table.hi).values
        assert np.max(np.abs(hi - table.hi)) < 1e-8
        assert np.max(np.abs(lo - table.lo)) < 1e-8

    def test_outputs_stay_in_range(self, table):
        rng = np.random.default_rng(0)
        with ad.Tape() as tape:
            out = ct.squash(tape.const(rng.normal(size=(20000, 48)) * 3), table.lo,
                            table.hi).values
        assert ct.count_violations(out, table) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-8, 8), st.floats(-8, 8))
    def test_strictly_monotone_per_id(self, r1, r2):
        table = ct.default_constraint_table()
        if abs(r1 - r2) < 1e-9:  # below tanh's float resolution
            return
        lo, hi = (r1, r2) if r1 < r2 else (r2, r1)
        with ad.Tape() as tape:
            a = ct.squash(tape.const(np.full(48, lo)), table.lo, table.hi).values
            b = ct.squash(tape.const(np.full(48, hi)), table.lo, table.hi).values
        assert np.all(a < b)

    def test_rejects_non_finite(self, table):
        raw = np.zeros(48)
        raw[3] = np.nan
        with ad.Tape() as tape, pytest.raises(ValueError, match="finite"):
            ct.squash(tape.const(raw), table.lo, table.hi)

    def test_batch_shape(self, table):
        with ad.Tape() as tape:
            out = ct.squash(tape.const(np.zeros((5, 48))), table.lo, table.hi).values
        assert out.shape == (5, 48)


class TestValidate:
    def test_squash_output_always_valid(self, table):
        rng = np.random.default_rng(1)
        for _ in range(20):
            with ad.Tape() as tape:
                out = ct.squash(tape.const(rng.normal(size=48) * 4), table.lo, table.hi).values
            assert ct.validate_params(out, table).ok

    def test_out_of_range_knee_flagged(self, table):
        params = np.zeros(48)
        knee = table.id_of("l_knee_flex")
        params[knee] = 0.5
        report = ct.validate_params(params, table)
        assert not report.ok
        assert [v.param_id for v in report.violations] == [knee]
        assert report.violations[0].bound == "max"
        assert "l_knee_flex" in str(report.violations[0])

    def test_zero_vector_valid_and_ranges_contain_zero(self, table):
        assert np.all(table.lo <= 0.0) and np.all(table.hi >= 0.0)
        assert ct.validate_params(np.zeros(48), table).ok

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected_with_its_id(self, table, bad):
        params = np.zeros(48)
        params[47] = bad
        with pytest.raises(ValueError, match=r"param 47 \(r_forearm_len\) is not finite"):
            ct.validate_params(params, table)

    def test_exact_boundary_passes(self, table):
        assert ct.validate_params(table.lo.copy(), table).ok
        assert ct.validate_params(table.hi.copy(), table).ok

    def test_report_invariant(self):
        with pytest.raises(ValueError, match="ok must be true"):
            ct.ValidationReport(ok=False, violations=())


class TestDefaultTable:
    def test_knee_bounds(self, table):
        for side in ("l", "r"):
            i = table.id_of(f"{side}_knee_flex")
            lo, hi = table.lo[i], table.hi[i]
            assert lo == pytest.approx(-np.pi, abs=1e-12)
            assert hi == 0.0

    def test_elbow_bounds(self, table):
        for side in ("l", "r"):
            i = table.id_of(f"{side}_elbow_flex")
            lo, hi = table.lo[i], table.hi[i]
            assert lo == 0.0
            assert hi == pytest.approx(np.deg2rad(150), abs=1e-12)

    def test_length_deltas_are_plus_minus_20_percent(self, table, topology):
        rest = param_rest_ref(topology)
        lengths = [i for i, kind in enumerate(topology.param_kinds) if kind == "length"]
        assert len(lengths) == 15
        for i in lengths:
            assert table.lo[i] == pytest.approx(-0.2 * rest[i], abs=1e-12)
            assert table.hi[i] == pytest.approx(+0.2 * rest[i], abs=1e-12)

    def test_femur_effective_range(self, table, topology):
        # rest 0.45 m with +/-20% deltas spans effective lengths (0.36, 0.54)
        i = table.id_of("l_femur_len")
        rest = param_rest_ref(topology)[i]
        assert rest == pytest.approx(0.45)
        assert rest + table.lo[i] == pytest.approx(0.36, abs=1e-12)
        assert rest + table.hi[i] == pytest.approx(0.54, abs=1e-12)

    def test_min_below_max_everywhere(self, table):
        assert np.all(table.lo < table.hi)

    @pytest.mark.parametrize("knee", sk.KNEE_IDS)
    def test_knee_invariant_enforced(self, table, knee):
        hi = table.hi.copy()
        hi[knee] = 0.5
        names = tuple(f"param{i}" for i in range(len(hi)))
        with pytest.raises(ValueError, match=f"id {knee}: knee bounds for param{knee}"):
            ct.ConstraintTable(lo=table.lo, hi=hi, names=names, kinds=table.kinds)

    def test_names_and_kinds_must_match_the_bounds(self):
        with pytest.raises(ValueError, match="equal-length"):
            ct.ConstraintTable(lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]),
                               names=("a",), kinds=("angle", "angle"))

    def test_shipped_file_hash_is_pinned(self):
        # data/constraints.txt is the one copy of the default ranges
        text = ct.table_to_text(ct.default_constraint_table())
        assert hashlib.sha256(text.encode()).hexdigest()[:12] == "35fefa8faa1a"

    def test_file_round_trip(self, table, tmp_path):
        path = tmp_path / "bounds.txt"
        path.write_text(ct.table_to_text(table))
        assert ct.load_constraint_table(path) == table

    @pytest.mark.parametrize("defect", sorted(DAMAGED_TABLES))
    def test_damaged_file_is_a_value_error_naming_path_and_line(self, tmp_path, defect):
        path = tmp_path / "bounds.txt"
        path.write_text(damaged_table(defect))
        with pytest.raises(ValueError, match=re.escape(str(path)) + DAMAGED_TABLES[defect]):
            ct.load_constraint_table(path)


class TestEffectiveLengths:
    def test_squashed_lengths_keep_bones_within_20_percent(self, table, topology):
        rng = np.random.default_rng(2)
        with ad.Tape() as tape:
            params = ct.squash(tape.const(rng.normal(size=(200, 48)) * 5), table.lo,
                               table.hi).values
        poses = sk.forward_kinematics_batch(topology, params, np.zeros((200, 6)))
        lengths = sk.bone_lengths(topology, poses)
        rest = sk.bone_lengths(topology, sk.rest_pose(topology))
        assert np.all(lengths >= 0.8 * rest - 1e-12)
        assert np.all(lengths <= 1.2 * rest + 1e-12)
