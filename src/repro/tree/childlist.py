"""A blocked sequence with O(√n) positional operations.

Child lists of XML nodes can be enormous (the DBLP root has millions
of children), and the tree edit operations are positional: insert at
position k, find a node's position, splice a range.  A plain Python
list makes those O(n); this blocked list — a list of small chunks plus
a per-node membership map — makes them O(√n) while keeping iteration
O(n) and memory overhead small.

Design:

- elements live in *blocks* (Python lists) of at most ``2·target``
  elements; blocks split when they overflow and merge with a
  neighbour when they underflow below ``target / 2``,
- the block sizes are cached in a prefix-summable array that is small
  (O(n / target)), so position arithmetic scans only the block index,
- a ``value → block`` map gives O(block) ``index()`` for the unique
  integer node ids stored here.

The structure is internal to :class:`repro.tree.tree.Tree`; its public
behaviour is exactly that of a list of unique ids.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

_TARGET = 64


class BlockedList:
    """A sequence of unique hashable elements with fast positional ops."""

    __slots__ = ("_blocks", "_sizes", "_block_of", "_length", "_target")

    def __init__(self, items: Optional[Sequence[int]] = None, target: int = _TARGET) -> None:
        self._target = max(target, 4)
        self._blocks: List[List[int]] = []
        self._sizes: List[int] = []
        self._block_of: Dict[int, int] = {}
        self._length = 0
        if items:
            self._bulk_load(list(items))

    def _bulk_load(self, items: List[int]) -> None:
        step = self._target
        for start in range(0, len(items), step):
            block = items[start : start + step]
            block_index = len(self._blocks)
            self._blocks.append(block)
            self._sizes.append(len(block))
            for value in block:
                self._block_of[value] = block_index
        self._length = len(items)

    def copy(self) -> "BlockedList":
        """An independent list with the same elements and block layout
        (C-speed: no per-element work beyond the block copies)."""
        clone = BlockedList.__new__(BlockedList)
        clone._target = self._target
        clone._blocks = [list(block) for block in self._blocks]
        clone._sizes = list(self._sizes)
        clone._block_of = dict(self._block_of)
        clone._length = self._length
        return clone

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        for block in self._blocks:
            yield from block

    def __contains__(self, value: int) -> bool:
        return value in self._block_of

    def to_list(self) -> List[int]:
        """The elements as a plain list (C-speed block concatenation)."""
        blocks = self._blocks
        if not blocks:
            return []
        if len(blocks) == 1:
            return list(blocks[0])
        out: List[int] = []
        for block in blocks:
            out.extend(block)
        return out

    def __getitem__(self, position: int):
        if isinstance(position, slice):
            return self.to_list()[position]
        if position < 0:
            position += self._length
        if not 0 <= position < self._length:
            raise IndexError(position)
        block_index, offset = self._locate(position)
        return self._blocks[block_index][offset]

    def _locate(self, position: int) -> tuple:
        """(block index, offset) of a 0-based position."""
        for block_index, size in enumerate(self._sizes):
            if position < size:
                return block_index, position
            position -= size
        raise IndexError(position)

    def index(self, value: int) -> int:
        """0-based position of an element — O(blocks + block size)."""
        try:
            block_index = self._block_of[value]
        except KeyError:
            raise ValueError(f"{value!r} is not in the list") from None
        return sum(self._sizes[:block_index]) + self._blocks[block_index].index(value)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, position: int, value: int) -> None:
        """Insert at a 0-based position."""
        if value in self._block_of:
            raise ValueError(f"{value!r} is already in the list")
        if position < 0:
            position += self._length
        position = max(0, min(position, self._length))
        if not self._blocks:
            self._blocks.append([value])
            self._sizes.append(1)
            self._block_of[value] = 0
            self._length = 1
            return
        if position == self._length:
            block_index = len(self._blocks) - 1
            offset = self._sizes[block_index]
        else:
            block_index, offset = self._locate(position)
        block = self._blocks[block_index]
        block.insert(offset, value)
        self._sizes[block_index] += 1
        self._block_of[value] = block_index
        self._length += 1
        if len(block) > 2 * self._target:
            self._split(block_index)

    def remove(self, value: int) -> int:
        """Remove an element, returning its former 0-based position."""
        try:
            block_index = self._block_of[value]
        except KeyError:
            raise ValueError(f"{value!r} is not in the list") from None
        offset = self._blocks[block_index].index(value)
        position = sum(self._sizes[:block_index]) + offset
        self._remove_at_block(block_index, offset)
        return position

    def _remove_at_block(self, block_index: int, offset: int) -> int:
        block = self._blocks[block_index]
        value = block.pop(offset)
        del self._block_of[value]
        self._sizes[block_index] -= 1
        self._length -= 1
        if not block:
            self._drop_block(block_index)
        elif len(block) < self._target // 2:
            self._rebalance(block_index)
        return value

    def pop_range(self, start: int, stop: int) -> List[int]:
        """Remove and return elements at 0-based positions [start, stop)."""
        count = max(0, min(stop, self._length) - max(start, 0))
        removed: List[int] = []
        for _ in range(count):
            block_index, offset = self._locate(start)
            removed.append(self._remove_at_block(block_index, offset))
        return removed

    def slice_values(self, start: int, stop: int) -> List[int]:
        """Elements at 0-based positions [start, stop) — one locate,
        then a walk along the blocks."""
        start = max(start, 0)
        stop = min(stop, self._length)
        if start >= stop:
            return []
        block_index, offset = self._locate(start)
        result: List[int] = []
        remaining = stop - start
        while remaining > 0 and block_index < len(self._blocks):
            block = self._blocks[block_index]
            taken = block[offset : offset + remaining]
            result.extend(taken)
            remaining -= len(taken)
            block_index += 1
            offset = 0
        return result

    def insert_range(self, position: int, values: Sequence[int]) -> None:
        """Insert several elements starting at a 0-based position."""
        for offset, value in enumerate(values):
            self.insert(position + offset, value)

    # ------------------------------------------------------------------
    # block maintenance
    # ------------------------------------------------------------------

    def _reindex(self, block_index: int) -> None:
        for value in self._blocks[block_index]:
            self._block_of[value] = block_index

    def _reindex_from(self, block_index: int) -> None:
        for index in range(block_index, len(self._blocks)):
            self._reindex(index)

    def _split(self, block_index: int) -> None:
        block = self._blocks[block_index]
        half = len(block) // 2
        left, right = block[:half], block[half:]
        self._blocks[block_index] = left
        self._sizes[block_index] = len(left)
        self._blocks.insert(block_index + 1, right)
        self._sizes.insert(block_index + 1, len(right))
        self._reindex_from(block_index + 1)

    def _drop_block(self, block_index: int) -> None:
        del self._blocks[block_index]
        del self._sizes[block_index]
        self._reindex_from(block_index)

    def _rebalance(self, block_index: int) -> None:
        """Merge a small block into a neighbour (splitting again if the
        merge overflows)."""
        if len(self._blocks) == 1:
            return
        neighbour = block_index + 1 if block_index + 1 < len(self._blocks) else block_index - 1
        left, right = sorted((block_index, neighbour))
        merged = self._blocks[left] + self._blocks[right]
        self._blocks[left] = merged
        self._sizes[left] = len(merged)
        del self._blocks[right]
        del self._sizes[right]
        self._reindex_from(left)
        if len(merged) > 2 * self._target:
            self._split(left)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BlockedList n={self._length} blocks={len(self._blocks)}>"
