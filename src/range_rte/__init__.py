"""Range-based relative transform estimation.

Estimates the 4-DoF transform (3D translation + heading) between two
agents' local odometry frames from inter-agent range measurements, with
a Fisher-information analysis layer and a Monte-Carlo evaluation harness.
Import its modules; `estimators.ESTIMATORS` is the one way to an estimator.
"""

__version__ = "0.1.0"
