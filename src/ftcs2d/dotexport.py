"""Graphviz DOT rendering of presentations and the class-connection graph."""

from __future__ import annotations

from .blocks import Block
from .presentation import Presentation, class_connections


def _vertex_label(g: Presentation, k: int) -> str:
    contents = "/".join(g.system.alphabet.format_block(g.system.block(k)))
    return f"{k}\\n{contents}"


def _edge_label(g: Presentation, label: Block) -> str:
    return "/".join(g.system.alphabet.format_block(label))


def to_dot(g: Presentation, name: str = "presentation") -> str:
    """DOT digraph: identifier + block contents on vertices, coloured edges."""
    out = [f"digraph {name} {{"]
    for k in g.vertices:
        out.append(f'  {k} [label="{_vertex_label(g, k)}"];')
    for u in g.vertices:
        for v in g.blue_out(u):
            lab = _edge_label(g, g.blue_label(u, v))
            out.append(f'  {u} -> {v} [color=blue, label="{lab}"];')
        for v in g.red_out(u):
            lab = _edge_label(g, g.red_label(u, v))
            out.append(f'  {u} -> {v} [color=red, label="{lab}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def classes_to_dot(g: Presentation, name: str = "classes") -> str:
    """Class-connection graph: one node per head identifier, blue edges between classes."""
    out = [f"digraph {name} {{"]
    for k in g.vertices:
        out.append(f'  {k} [label="{_vertex_label(g, k)}", shape=circle];')
    for u, v in sorted(class_connections(g)):
        out.append(f"  {u} -> {v} [color=blue];")
    out.append("}")
    return "\n".join(out) + "\n"
