"""Exact enumeration and bound verification for maximal independent sets.

The package counts maximal independent sets by size and maximal induced
bipartite subgraphs in small graphs, evaluates the closed-form count
bounds exactly, and runs the structural decomposition / transversal
analysis that certifies the counting argument on concrete instances.
"""
