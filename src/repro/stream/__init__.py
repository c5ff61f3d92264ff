"""Faithful one-pass streaming simulators of REPT and the baselines.

Each module implements one paper algorithm as a sequential per-processor
(or per-trial) function over numpy edge arrays. REPT, MASCOT and Trièst
decide before the loop which edges enter the sample, so they share one
per-edge loop, :func:`repro.stream.rept.semi_triangle_pass`; GPS has its
own. :mod:`repro.stream.engine` fans trials out as Spark tasks (a
"processor" of the paper = one task).
"""
