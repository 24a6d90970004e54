"""Reference payloads for the tree writers.

``treeends.cli`` writes the JSON of ``unfold``, ``lambda`` and ``reduce
--interval`` record by record; these build the payload dicts from the
definitions, so the tests can compare the writers with
``json.dumps(payload, indent=2)``.
"""

from tree_reference import colored_nodes


def tree_payload(t) -> dict:
    return {
        "schema": 1,
        "depth": t.depth,
        "nodes": [
            {
                "id": n.id,
                "tier": n.tier,
                "parent": n.parent,
                "vertex": n.germ_vertex,
                "label": n.label,
                "positive": n.positive,
            }
            for n in t.nodes
        ],
    }


def colored_tree_payload(ct) -> dict:
    return {
        "schema": 1,
        "nodes": [
            {
                "id": n.id,
                "parent": n.parent,
                "color": n.color,
                "original": n.original,
                "vertex": n.germ_vertex,
                "label": n.label,
                "residue": n.residue,
            }
            for n in colored_nodes(ct)
        ],
    }
