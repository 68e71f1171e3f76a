"""Seeded pytest-benchmark harnesses for the paper's experiments.

Speed is judged by the layered benchmark in ``perfbench/``; these
modules time the experiment drivers and kernel entry points (see
``docs/performance.md``).
"""
