"""Benchmark harness package: ablations, extensions, throughput and the
service soaks."""
