"""Reference for ``cw.build_cover`` and ``cw.build_cover_graph``: the
key-indexed cover builder.

It lays out every vertex and edge through dicts keyed by (coset vertex,
height) and (component, height, node id), height by height in the order 0,
-1, 1, -2, 2, ..., over the keyed coset tree of tree_reference, and builds
each square face from those keys.  The package places vertices, edges and
faces by index arithmetic instead; the tests check on random germs that
both give the same complex, cell for cell and in the same order, and that
``cw.cover_vertex`` finds every key's vertex.
"""

from dataclasses import dataclass

from tree_reference import null_components
from treeends.cw import CW2Complex
from treeends.errors import DomainError, SizeCeilingError
from treeends.unfold import DEFAULT_CEILING


@dataclass
class KeyedCover:
    """A keyed cover: its complex, the vertex of each (coset vertex, height)
    key and of each (component, height, node id) key."""

    complex: CW2Complex
    product_vertex: dict
    null_vertex: dict
    middle_vertex: int  # the root's copy at height 0


def keyed_cover(c, nf, height, ceiling=DEFAULT_CEILING):
    """Cell the strip over the clone tree ``c``, a ``KeyedCosetTree``, with
    square faces, then hang a copy of every truncated null subtree at each
    integer height, shifted by the residue odometer."""
    if height < 1:
        raise DomainError("height bound must be at least 1")
    n_heights = 2 * height + 1
    components = null_components(nf)
    null_nodes = sum(len(comp.nodes) for comp in components)
    est_vertices = len(c.verts) * n_heights + null_nodes * n_heights
    est_edges = (
        (len(c.verts) - 1) * n_heights
        + len(c.verts) * (n_heights - 1)
        + null_nodes * n_heights
    )
    est_faces = (len(c.verts) - 1) * (n_heights - 1)
    if est_vertices + est_edges + est_faces > ceiling:
        raise SizeCeilingError(
            "cover cells", est_vertices + est_edges + est_faces, ceiling
        )

    # shell by shell: height 0, then -1, 1, -2, 2 and so on, each height
    # with its vertices, and its edges and squares out to the next inner one
    heights = sorted(range(-height, height + 1), key=lambda h: (abs(h), h))
    product_vertex: dict = {}
    null_vertex: dict = {}
    vertex_count = 0
    for h in heights:
        for vi in range(len(c.verts)):
            product_vertex[(vi, h)] = vertex_count
            vertex_count += 1
        for ci, comp in enumerate(components):
            for tnode in comp.nodes:
                null_vertex[(ci, h, tnode.id)] = vertex_count
                vertex_count += 1

    edges: list = []
    horizontal_edge: dict = {}
    vertical_edge: dict = {}
    for outer in heights:
        h = outer
        for vi in range(len(c.verts)):
            parent = c.parent_idx[vi]
            if parent is None:
                continue
            horizontal_edge[(vi, h)] = len(edges)
            edges.append((product_vertex[(vi, h)], product_vertex[(parent, h)]))
        for ci, comp in enumerate(components):
            attach_base = comp.nodes[0].parent
            order = c.order_of[attach_base]
            shifted = c.index[(attach_base, h % order)]
            for tnode in comp.nodes:
                if tnode.id == comp.root_id:
                    target = product_vertex[(shifted, h)]
                else:
                    target = null_vertex[(ci, h, tnode.parent)]
                edges.append((null_vertex[(ci, h, tnode.id)], target))
        if outer == 0:
            continue
        h = outer if outer < 0 else outer - 1  # between outer and the next inner height
        for vi in range(len(c.verts)):
            vertical_edge[(vi, h)] = len(edges)
            edges.append((product_vertex[(vi, h)], product_vertex[(vi, h + 1)]))

    faces: list = []
    for outer in heights:
        if outer == 0:
            continue
        h = outer if outer < 0 else outer - 1  # the square spans h..h+1
        for vi in range(len(c.verts)):
            if c.parent_idx[vi] is None:
                continue
            parent = c.parent_idx[vi]
            word = [
                (horizontal_edge[(vi, h)], 1),
                (vertical_edge[(parent, h)], 1),
                (horizontal_edge[(vi, h + 1)], -1),
                (vertical_edge[(vi, h)], -1),
            ]
            faces.append(word)

    k = CW2Complex(vertex_count, [t for t, _ in edges], [h for _, h in edges], faces)
    root = c.index[(c.base.nodes[0].id, 0)]
    return KeyedCover(k, product_vertex, null_vertex, product_vertex[(root, 0)])
