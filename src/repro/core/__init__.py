"""Core of the reproduction: the REPT algorithm and its baselines.

Submodules:

* ``hashing``     — deterministic splitmix64 hashing shared by every engine.
* ``estimators``  — estimator math (variance formulas, Graybill–Deal and
  the Algorithm 2 combination, NRMSE).
* ``closed_form`` — end-of-stream REPT (Algorithms 1 and 2) and MASCOT
  outputs as numpy over edge-indexed triangle arrays, many seeds per call.
* ``structured``  — Structured Streaming REPT job.
"""
