"""Benchmark driver for the simulator (see ``perfbench/README.md``)."""
