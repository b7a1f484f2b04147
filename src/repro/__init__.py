"""FlexDriver (ASPLOS 2022) reproduction.

``__version__`` is the package release and feeds nothing simulated:
sweep seeds hash the frozen :data:`repro.sweep.points.SEED_VERSION`,
so a release bump moves no simulated byte.
"""

__version__ = "1.1.0"
