import os
import sys
from importlib import resources
from pathlib import Path

import pytest

from dhpose.__main__ import BLAS_THREAD_VARS  # loads no numpy

# BLAS reads its thread count once, when numpy loads.  Pin it to one thread
# first, as the dhpose command does, unless the caller set it: two BLAS
# threads spin when another process holds a core, and the tests' time
# budgets would then depend on the machine's load.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).parent))

from dhpose.camera import default_camera  # noqa: E402
from dhpose.constraints import default_constraint_table  # noqa: E402
from dhpose.features import adjacent_bone_pairs  # noqa: E402
from dhpose.skeleton import default_topology, rest_pose_from_text  # noqa: E402


@pytest.fixture(scope="session")
def topology():
    return default_topology()


@pytest.fixture(scope="session")
def shipped_rest_pose():
    """``data/rest_pose.txt``: the T-pose zero deltas give, the tests' FK oracle."""
    resource = resources.files("dhpose").joinpath("data/rest_pose.txt")
    return rest_pose_from_text(resource.read_text(), resource)


@pytest.fixture(scope="session")
def table():
    return default_constraint_table()


@pytest.fixture(scope="session")
def camera():
    return default_camera()


@pytest.fixture(scope="session")
def pairs(topology):
    return adjacent_bone_pairs(topology)
