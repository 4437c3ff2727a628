"""Temporal-depth numerics for face presentation attack detection.

Modules:
  geometry    - two-camera attack scene models and relative-depth estimation
                (standard library only)
  depthlabel  - ground-truth living depth labels from a vertex cloud
  features    - spatial/temporal gradients and the five-branch motion block
  recurrent   - convolutional GRU forward recurrence and depth fusion
  supervision - depth and binary losses with analytic gradients
  metrics     - PAD error rates and the living score
  model       - the demo's forward pass, from depth labels to live scores
  cli         - simulate / demo / metrics command line front end (standard
                library only; each command imports the modules it computes
                with when it runs)
"""

__version__ = "0.1.0"
