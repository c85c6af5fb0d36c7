"""The portal-lifecycle benchmark (see ``README.md`` in this directory).

One harness, four workloads, every layer measured from outside.  The
contract with the driver lives in ``/BENCHMARK.json``.
"""
