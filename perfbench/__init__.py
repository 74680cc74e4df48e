"""The repository's end-to-end benchmark (see ``perfbench/README.md``).

Run one workload with::

    python3 perfbench/run.py --workload scenerec_serve --seed 1 --seconds 10 --trace 0
"""
