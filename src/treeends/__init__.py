"""End-structure invariants of edge-labeled germ graphs.

A germ graph is a finite rooted multigraph with nonnegative integer edge
labels.  Its unfolding is an infinite labeled tree; the label data turns
the positive part into a telescope of circles whose end behavior, rank
towers, and pro-level flags this package computes exactly, with every
closed form double-checked against finite cell complexes.
"""

__version__ = "0.1.0"
