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
