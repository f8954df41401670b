"""Compact tree construction and formatting helpers.

Two interchange formats are supported:

- *bracket notation* — ``"a(b,c(d,e))"`` — compact and human readable,
  used pervasively in tests and doctests.  Labels may be quoted with
  double quotes to contain ``( ) , "`` characters.
- *nested tuples* — ``("a", [("b", []), ("c", [...])])`` — convenient
  for programmatic construction.

Both builders assign fresh ids in preorder, so the same textual tree
always produces the same (id, label) assignment.
"""

from __future__ import annotations

import re
from typing import Callable, List, Sequence, Tuple, Union

from repro.errors import TreeError
from repro.tree.tree import Tree

Nested = Tuple[str, Sequence["Nested"]]


def tree_from_nested(spec: Nested) -> Tree:
    """Build a tree from ``(label, [children...])`` nested tuples."""
    label, children = spec
    tree = Tree(label)
    _attach_nested(tree, tree.root_id, children)
    return tree


def _attach_nested(tree: Tree, parent_id: int, children: Sequence[Nested]) -> None:
    for label, grandchildren in children:
        child_id = tree.add_child(parent_id, label)
        _attach_nested(tree, child_id, grandchildren)


def tree_to_nested(tree: Tree, node_id: Union[int, None] = None) -> Nested:
    """Inverse of :func:`tree_from_nested` (ids are not preserved).
    Iterative, so any depth converts."""
    if node_id is None:
        node_id = tree.root_id
    top: Nested = (tree.label(node_id), [])
    stack = [(node_id, top[1])]
    while stack:
        current, children = stack.pop()
        for child in tree.children(current):
            spec: Nested = (tree.label(child), [])
            children.append(spec)
            stack.append((child, spec[1]))
    return top


#: One node of bracket text: its label (quoted, or bare and trimmed),
#: then either "(" — its children follow — or the run of ")" that
#: closes it and its ancestors, up to the "," or the end of the text.
_NODE = re.compile(
    r'\s*(?:"([^"\\]*(?:\\.[^"\\]*)*)"|([^\s(),"](?:[^(),"]*[^\s(),"])?))\s*'
    r'(?:(\()|((?:\)\s*)*)(,|\Z)?)',
    re.DOTALL,
)
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
#: labels :func:`tree_to_brackets` may write without quotes
_BARE = re.compile(r'[^\s(),"\\](?:[^(),"\\]*[^\s(),"\\])?')


def _no_label(text: str, position: int) -> TreeError:
    rest = text[position:].lstrip()
    offset = len(text) - len(rest)
    if rest.startswith('"'):
        return TreeError(f"unterminated quoted label at offset {offset}")
    if rest.startswith(")") and text[:offset].rstrip().endswith("("):
        return TreeError("empty child list; drop the parentheses instead")
    return TreeError(f"missing label at offset {offset}")


def scan_brackets(
    text: str, open: Callable[[str], object], close: Callable[[], object]
) -> None:
    """Drive ``open(label)`` / ``close()`` once per node of bracket
    text, in document order — the one reader of the notation.

    One regex match per node and no recursion: depth is a counter, so a
    path-shaped tree deeper than the interpreter's recursion limit
    scans like any other.  Raises :class:`TreeError` on malformed text
    (events already delivered are the caller's to discard).
    """
    match = _NODE.match
    position = depth = 0
    while True:
        node = match(text, position)
        if node is None:
            raise _no_label(text, position)
        quoted, bare, descend, closes, delimiter = node.groups()
        if quoted is None:
            open(bare)
        else:
            open(_ESCAPED.sub(r"\1", quoted) if "\\" in quoted else quoted)
        position = node.end()
        if descend:
            depth += 1
            continue
        close()
        for _ in range(closes.count(")")):
            if not depth:
                raise TreeError(f"unbalanced ')' before offset {position}")
            depth -= 1
            close()
        if delimiter is None:
            raise TreeError(
                f"expected ',' or ')' at offset {position}"
                if depth
                else f"trailing characters at offset {position}: "
                f"{text[position:position + 20]!r}"
            )
        if delimiter:
            if not depth:
                raise TreeError(f"second root at offset {position}")
        elif depth:
            raise TreeError(f"{depth} unclosed child list(s) at end of text")
        else:
            return


def tree_from_brackets(text: str) -> Tree:
    """Parse bracket notation into a tree.

    >>> t = tree_from_brackets("a(b,c(d,e))")
    >>> len(t)
    5
    >>> t.label(t.root_id)
    'a'
    """
    tree: Tree = None  # type: ignore[assignment]
    path: List[int] = []  # ids of the open nodes, root first

    def open(label: str) -> None:
        nonlocal tree
        if path:
            path.append(tree.add_child(path[-1], label))
        else:
            tree = Tree(label)
            path.append(tree.root_id)

    scan_brackets(text, open, path.pop)
    return tree


def _format_label(label: str) -> str:
    if _BARE.fullmatch(label):
        return label
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def tree_to_brackets(tree: Tree, node_id: Union[int, None] = None) -> str:
    """Serialize a tree to bracket notation (inverse of the parser)."""
    pieces: List[str] = []
    # node ids still to write, interleaved with the punctuation between them
    pending: List[Union[int, str]] = [tree.root_id if node_id is None else node_id]
    while pending:
        item = pending.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        pieces.append(_format_label(tree.label(item)))
        children = tree.children(item)
        if children:
            pieces.append("(")
            pending.append(")")
            for child in children[:0:-1]:
                pending.append(child)
                pending.append(",")
            pending.append(children[0])
    return "".join(pieces)
