"""dhpose: kinematic human pose synthesis with constraint-bounded generation.

A Denavit-Hartenberg skeleton drives 3D pose synthesis from 48 bounded
parameters; Wasserstein critics with a gradient penalty train the generator;
the tooling emits paired 2D-3D datasets and skeleton-video files.

Import the submodules (``dhpose.skeleton``, ``dhpose.gan``, ...) directly.
The package itself loads nothing, so that the ``dhpose`` command
(``dhpose.__main__``) can fix the BLAS thread count before numpy loads.
"""

__version__ = "0.1.0"
