"""The repository's layered benchmark (see ``perfbench/GLOSSARY.md``).

Run it from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 36 --trace 0

Nothing in here is imported by ``src/``; per-layer timings come from
wrappers this package installs around the program's public entry points.
"""
