"""Continuous-time tie-decay friendship networks from co-location events.

Pipeline: parse event logs, count co-occurrences, orient edges by degree,
evaluate tie-decay weights at any instant, rank nodes with PageRank, and
detect communities by simulated information flow. A synthetic generator
with planted communities supports end-to-end verification.
"""
