"""Reference for ``cw.build_cover`` and ``cw.build_cover_graph``: the
key-indexed cover builder.

It lays out every vertex and edge through dicts keyed by (coset vertex,
height) and (component, height, node id), and builds each square face from
those keys.  The package places vertices, edges and faces by index
arithmetic instead; the tests check on random germs that both give the same
complex, cell for cell and in the same order.
"""

from treeends.cw import CoverComplex, CW2Complex
from treeends.errors import DomainError, SizeCeilingError
from treeends.unfold import DEFAULT_CEILING


def keyed_cover(c, nf, height, ceiling=DEFAULT_CEILING):
    """Cell the strip over the clone tree with square faces, then hang a
    copy of every truncated null subtree at each integer height, shifted by
    the residue odometer."""
    if height < 1:
        raise DomainError("height bound must be at least 1")
    n_heights = 2 * height + 1
    null_nodes = sum(len(comp.nodes) for comp in nf.components)
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

    product_vertex: dict = {}
    for vi in range(len(c.verts)):
        for h in range(-height, height + 1):
            product_vertex[(vi, h)] = len(product_vertex)
    vertex_count = len(product_vertex)
    null_vertex: dict = {}
    for ci, comp in enumerate(nf.components):
        for h in range(-height, height + 1):
            for tnode in comp.nodes:
                null_vertex[(ci, h, tnode.id)] = vertex_count
                vertex_count += 1

    edges: list = []
    horizontal_edge: dict = {}
    vertical_edge: dict = {}
    for vi in range(len(c.verts)):
        parent = c.parent_idx[vi]
        if parent is None:
            continue
        for h in range(-height, height + 1):
            horizontal_edge[(vi, h)] = len(edges)
            edges.append((product_vertex[(vi, h)], product_vertex[(parent, h)]))
    for vi in range(len(c.verts)):
        for h in range(-height, height):
            vertical_edge[(vi, h)] = len(edges)
            edges.append((product_vertex[(vi, h)], product_vertex[(vi, h + 1)]))
    for ci, comp in enumerate(nf.components):
        attach_base = comp.nodes[0].parent
        order = c.order_of[attach_base]
        for h in range(-height, height + 1):
            shifted = c.index[(attach_base, h % order)]
            for tnode in comp.nodes:
                if tnode.id == comp.root_id:
                    target = product_vertex[(shifted, h)]
                else:
                    target = null_vertex[(ci, h, tnode.parent)]
                edges.append((null_vertex[(ci, h, tnode.id)], target))

    faces: list = []
    for vi in range(len(c.verts)):
        if c.parent_idx[vi] is None:
            continue
        parent = c.parent_idx[vi]
        for h in range(-height, height):
            word = [
                (horizontal_edge[(vi, h)], 1),
                (vertical_edge[(parent, h)], 1),
                (horizontal_edge[(vi, h + 1)], -1),
                (vertical_edge[(vi, h)], -1),
            ]
            faces.append(word)

    k = CW2Complex(vertex_count, [t for t, _ in edges], [h for _, h in edges], faces)
    return CoverComplex(
        complex=k,
        coset=c,
        height=height,
        product_vertex=product_vertex,
        null_vertex=null_vertex,
    )
