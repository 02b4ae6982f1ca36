"""Import ``dhpose`` from this checkout's ``src/``, never from anywhere else.

Scripts compare two checkouts by running each from its own tree.  A plain
``import dhpose`` would need ``PYTHONPATH=src``, and with an editable install
it would load the installed tree's sources, so both sides would print the
same digests.  Call ``import_dhpose()`` before the first ``dhpose`` import.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def import_dhpose() -> None:
    """Put this checkout's ``src/`` first on ``sys.path`` and import ``dhpose``;
    exit with a message if there are no sources there or it resolves elsewhere."""
    script = Path(sys.argv[0]).name
    if not (SRC / "dhpose" / "__init__.py").is_file():
        sys.exit(f"{script}: no dhpose sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dhpose
    if Path(dhpose.__file__).resolve().parent != (SRC / "dhpose").resolve():
        sys.exit(f"{script}: imported dhpose from {dhpose.__file__}, not from {SRC}")
