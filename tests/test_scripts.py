"""The scripts import ``dhpose`` from their own checkout's ``src/``."""

import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_scripts_run_without_pythonpath(tmp_path):
    out = tmp_path / "smoke.txt"
    proc = run_script("make_smoke_corpus.py", "--count", "8", "--seed", "0", "--out", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == "e8065c807880"
    proc = run_script("same_seed_digest.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--seed" in proc.stdout


def test_smoke_corpus_refuses_a_frame_count_in_single_mode(tmp_path):
    out = tmp_path / "smoke.txt"
    proc = run_script("make_smoke_corpus.py", "--frames", "5", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2 and "a frame count (5) needs video mode" in proc.stderr
    assert not out.exists()


def test_heap_by_phase_prints_every_phase(tmp_path):
    proc = run_script("heap_by_phase.py", "--seed", "3", "--count", "8", "--batch", "4",
                      "--frames", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("heap by phase, seed 3, video T=3, batch 4, 8 sequences")
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    # two generator steps of five critic steps each; one end-of-epoch log and synthesis
    # (the critic steps' own critic_loss calls nest in critic_update)
    assert {name: int(row[0]) for name, row in rows.items()} == {
        "critic_update": 10, "generator_update": 2, "critic_loss": 1, "synthesize_dataset": 1}
    epoch_peak = float(lines[-1].split()[-1])
    for calls, above, absolute in rows.values():
        assert 0 < float(above) <= float(absolute) <= epoch_peak


@pytest.fixture
def checkout(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # sys.path is restored afterwards
    import checkout
    return checkout


def test_dhpose_from_another_tree_is_refused(checkout, monkeypatch, tmp_path):
    other = types.ModuleType("dhpose")
    other.__file__ = str(tmp_path / "dhpose" / "__init__.py")
    monkeypatch.setitem(sys.modules, "dhpose", other)
    with pytest.raises(SystemExit, match=f"imported dhpose from {other.__file__}, not from"):
        checkout.import_dhpose()


def test_checkout_without_sources_is_refused(checkout, monkeypatch, tmp_path):
    monkeypatch.setattr(checkout, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit, match="no dhpose sources at"):
        checkout.import_dhpose()


def test_import_dhpose_pins_blas_to_one_thread(checkout, monkeypatch):
    from dhpose.__main__ import BLAS_THREAD_VARS
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "4")  # a caller's own setting is overridden
    checkout.import_dhpose()
    assert {var: os.environ[var] for var in BLAS_THREAD_VARS} == dict.fromkeys(BLAS_THREAD_VARS,
                                                                                "1")
