"""Every text reader rejects a bad line with a ``ParseError`` naming the file
and the line, and the CLI turns it into exit code 2."""

import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhpose import cli, gan, nn
from dhpose import constraints as ct
from dhpose import dataset as dsio
from dhpose import skeleton as sk
from dhpose.textio import ParseError, dense, records


def _checkpoint(path):
    gen = gan.build_generator(gan.TrainConfig(gen_hidden=(8,)), np.random.default_rng(0))
    gan.save_generator(gen, path, seed=0)


# reader -> (write a good file, line to damage, numeric token on it, load, CLI argv)
READERS = {
    "topology": (lambda p: p.write_text(sk.topology_to_text(sk.default_topology())),
                 5, 4, sk.load_topology, ["fk", "--topology", "{path}"]),
    "constraints": (lambda p: p.write_text(ct.table_to_text(ct.default_constraint_table())),
                    4, 4, ct.load_constraint_table,
                    ["validate", "--constraints", "{path}", "--params", "{tmp}/zeros.txt"]),
    "rest pose": (lambda p: p.write_text(resources.files("dhpose").joinpath(
                      "data/rest_pose.txt").read_text()),
                  3, 3, sk.load_rest_pose, ["project", "--pose", "{path}"]),
    "params": (lambda p: p.write_text("# deltas\n" + "0 0 0 0 0 0 0 0\n" * 6),
               7, 2, lambda p: cli._load_params_file(p, sk.default_topology()),
               ["fk", "--params", "{path}"]),
    "checkpoint": (_checkpoint, 10, 3, nn.load_checkpoint,
                   ["synth", "--count", "4", "--out", "{tmp}/out.txt", "--checkpoint", "{path}"]),
    "dataset": (lambda p: dsio.save_dataset(dsio.rows_of(dsio.make_band_corpus(4, 2)), p),
                3, 10, dsio.load_dataset, ["features", "--data", "{path}"]),
    # a binary dataset's count line, the one text line ahead of its records
    "binary dataset": (lambda p: dsio.save_dataset(dsio.rows_of(dsio.make_band_corpus(4, 2)),
                                                   p, fmt="binary"),
                       2, 1, dsio.load_dataset, ["features", "--data", "{path}"]),
}


# numbers Python's int and float read but the file grammar does not
NOT_ASCII = {"arabic-indic-digit": "\u0661", "underscore": "1_0.5",
             "arabic-indic-float": "\u0663.5"}


@pytest.mark.parametrize("defect", ["non-utf8", "nan", "short", *NOT_ASCII])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_bad_line_is_a_parse_error_naming_file_and_line(capsys, tmp_path, reader, defect):
    write, line_no, field, load, argv = READERS[reader]
    path = tmp_path / "input.txt"
    write(path)
    lines = path.read_bytes().split(b"\n")
    tokens = lines[line_no - 1].split(b" ")
    if defect == "non-utf8":
        tokens[field] += b"\x80"
    elif defect == "nan":
        tokens[field] = b"nan"
    elif defect in NOT_ASCII:
        tokens[field] = NOT_ASCII[defect].encode()
    else:
        tokens.pop()
    lines[line_no - 1] = b" ".join(tokens)
    path.write_bytes(b"\n".join(lines))
    says = f"{path}: parse error at line {line_no}: "
    with pytest.raises(ParseError, match="^" + re.escape(says)) as err:
        load(path)
    assert err.value.line_no == line_no
    (tmp_path / "zeros.txt").write_text(" ".join(["0"] * 48) + "\n")
    assert cli.run_cli([a.format(path=path, tmp=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: " + says)


# a row's tokens: row branch idx name a d alpha theta var_a var_d var_alpha var_theta
# theta_id len_id keypoint
FLAG_REASON = "a field's variable flag must be set exactly when it has an id"
ROW_EDITS = {  # edit -> (row prefix, token index, new token, reason)
    "unflagged length id": ("row 0 11 ", 13, "40", FLAG_REASON),
    "theta flag without id": ("row 1 4 ", 12, "-1", FLAG_REASON),
    "alpha flag": ("row 2 5 ", 10, "1", "variable twist angles are not supported"),
    "negative keypoint": ("row 0 11 ", 14, "-7", "keypoint -7 is neither -1 nor one of 0..15"),
}


@pytest.mark.parametrize("prefix, edit", [("param 5 ", "delete"), ("branch 2 ", "renumber"),
                                          ("keypoint 3 ", "duplicate"), ("row 0 9 ", "swap"),
                                          ("row 0 11 ", "swap ids"), ("keypoint 15 ", "17th"),
                                          *[(e[0], name) for name, e in ROW_EDITS.items()]])
def test_damaged_topology_exits_2_naming_file_and_line(capsys, tmp_path, prefix, edit):
    lines = resources.files("dhpose").joinpath("data/topology.txt").read_text().splitlines()
    i = next(n for n, line in enumerate(lines) if line.startswith(prefix))
    if edit in ROW_EDITS:
        _, field, token, reason = ROW_EDITS[edit]
        tokens = lines[i].split()
        tokens[field] = token
        lines[i] = " ".join(tokens)
        line_no = i + 1
    elif edit == "swap ids":  # neck_yaw's angle id 11 and head_nod's length id 35
        neck, head = lines[i].split(), lines[i + 1].split()
        neck[12], head[13] = head[13], neck[12]
        lines[i:i + 2] = " ".join(neck), " ".join(head)
        line_no, reason = i + 1, "row 'neck_yaw': theta id 35 is neither -1 nor one of 0..32"
    elif edit == "delete":
        del lines[i]
        line_no, reason = i + 1, "param 6 given but param 5 is missing"
    elif edit == "renumber":  # branch 2 becomes branch 7, so its rows name no branch
        lines[i] = "branch 7 " + lines[i][len(prefix):]
        line_no, reason = i + 2, "row of undeclared branch 2"
    elif edit == "duplicate":
        lines.insert(i + 1, lines[i])
        line_no, reason = i + 2, f"keypoint 3 already given at line {i + 1}"
    elif edit == "17th":  # a well-formed tree of 17 keypoints: neck_roll's row emits the 17th
        lines.insert(i + 1, "keypoint 16 neck")
        lines.insert(lines.index("bone 14 15") + 1, "bone 8 16")
        k = next(n for n, line in enumerate(lines) if line.startswith("row 0 10 "))
        lines[k] = lines[k].rsplit(" ", 1)[0] + " 16"
        line_no, reason = None, "a topology has 16 keypoints, got 17"
    else:  # rows 9 and 10 of branch 0 change places
        lines[i:i + 2] = lines[i + 1], lines[i]
        line_no, reason = i + 1, "row 10 of branch 0 where row 9 belongs"
    path = tmp_path / "topology.txt"
    path.write_text("\n".join(lines) + "\n")
    assert cli.run_cli(["fk", "--topology", str(path)]) == 2
    where = f" at line {line_no}" if line_no else ""
    assert capsys.readouterr().err == f"error: {path}: parse error{where}: {reason}\n"


# tokens that mostly fit each kind of field, and a few that do not
_FITTING = {int: [b"0", b"3", b"-1", b"2.5"], float: [b"2.5", b"-0", b"7", b"1e999", b"nan"],
            str: [b"x", b"0", "\u00e9".encode()], "kw": [b"kw", b"kw", b"x"]}


@st.composite
def _reader_inputs(draw):
    """Byte lines for ``records``, kinds for ``Record.fields`` and ids for
    ``dense``: lines are arbitrary bytes or near the grammar, so that every
    stage runs and fails."""
    kinds = draw(st.lists(st.sampled_from(list(_FITTING)), max_size=4))
    fitting = st.tuples(*[st.sampled_from(_FITTING[k]) for k in kinds]).map(b" ".join)
    near = st.lists(st.sampled_from(sum(_FITTING.values(), [b"#", b"\xff"])), max_size=5)
    line = st.one_of(fitting, fitting.map(lambda b: b + b" # note"), near.map(b" ".join),
                     st.binary(max_size=30))
    lines = draw(st.lists(line, max_size=8))
    n = len(lines)
    ids = draw(st.one_of(st.permutations(range(n)), st.lists(st.integers(-2, 9), min_size=n,
                                                             max_size=n)))
    return lines, kinds, ids


@settings(max_examples=300, deadline=None)
@given(_reader_inputs())
def test_fuzzed_lines_raise_only_a_parse_error_naming_source_and_line(inputs):
    lines, kinds, ids = inputs
    try:
        dense([(rec, i, rec.fields(*kinds)) for rec, i in zip(records(lines, "fuzz.txt"), ids)],
              "item", "fuzz.txt")
    except ParseError as exc:
        assert str(exc).startswith("fuzz.txt: parse error")
        assert exc.line_no is None or 1 <= exc.line_no <= len(lines)
