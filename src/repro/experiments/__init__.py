"""Experiment harnesses — one module per paper table/figure.

Each ``run_*`` function takes the session SparkSession, returns a
pandas DataFrame with the table's rows, and writes a CSV under
``results/`` so EXPERIMENTS.md can quote exact numbers.
:mod:`repro.reproduce` pins the call behind each committed CSV.
"""
