"""A red-black tree keyed by ``(priority, sequence)``.

The paper implements its crawl queues "as Red-Black trees" (section
4.2): the queue manager needs ordered extraction of the *best* link
(pop-max) and eviction of the *worst* when a bounded queue overflows
(pop-min), both in O(log n).  This is a textbook CLRS implementation
with a NIL sentinel; values ride along with their keys.

Keys must be mutually comparable tuples; the frontier uses
``(priority, -sequence)`` so ties break FIFO.
"""

from __future__ import annotations

from typing import Any

__all__ = ["RedBlackTree"]

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key, value, color, nil) -> None:
        self.key = key
        self.value = value
        self.color = color
        self.left = nil
        self.right = nil
        self.parent = nil


class RedBlackTree:
    """Ordered map with O(log n) insert, pop_min and pop_max."""

    def __init__(self) -> None:
        self._nil = _Node(None, None, BLACK, None)
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root = self._nil
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # -- rotations ---------------------------------------------------------

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    # -- insertion -----------------------------------------------------------

    def insert(self, key, value: Any = None) -> None:
        """Insert ``key`` (duplicates allowed; they order arbitrarily)."""
        node = _Node(key, value, RED, self._nil)
        parent = self._nil
        current = self._root
        while current is not self._nil:
            parent = current
            current = current.left if node.key < current.key else current.right
        node.parent = parent
        if parent is self._nil:
            self._root = node
        elif node.key < parent.key:
            parent.left = node
        else:
            parent.right = node
        self._size += 1
        self._insert_fixup(node)

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color == RED:
            grandparent = z.parent.parent
            if z.parent is grandparent.left:
                uncle = grandparent.right
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    z = grandparent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = grandparent.left
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grandparent.color = RED
                    z = grandparent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    # -- extrema -------------------------------------------------------------

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _maximum(self, node: _Node) -> _Node:
        while node.right is not self._nil:
            node = node.right
        return node

    def peek_max(self) -> tuple:
        if self._root is self._nil:
            raise IndexError("peek into empty tree")
        node = self._maximum(self._root)
        return node.key, node.value

    def pop_min(self) -> tuple:
        """Remove and return ``(key, value)`` with the smallest key."""
        if self._root is self._nil:
            raise IndexError("pop from empty tree")
        node = self._minimum(self._root)
        result = (node.key, node.value)
        self._delete(node)
        return result

    def pop_max(self) -> tuple:
        """Remove and return ``(key, value)`` with the largest key."""
        if self._root is self._nil:
            raise IndexError("pop from empty tree")
        node = self._maximum(self._root)
        result = (node.key, node.value)
        self._delete(node)
        return result

    # -- deletion (CLRS) -----------------------------------------------------

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete(self, z: _Node) -> None:
        y = z
        y_original_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        self._size -= 1
        if y_original_color == BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                w = x.parent.left
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK

    # -- iteration / invariants (used by tests) ------------------------------

    def items_in_order(self) -> list[tuple]:
        """All (key, value) pairs in ascending key order."""
        result: list[tuple] = []
        stack: list[_Node] = []
        node = self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            result.append((node.key, node.value))
            node = node.right
        return result

    def check_invariants(self) -> None:
        """Assert the red-black invariants (test helper)."""
        assert self._root.color == BLACK, "root must be black"

        def walk(node: _Node) -> int:
            if node is self._nil:
                return 1
            if node.color == RED:
                assert node.left.color == BLACK, "red node with red child"
                assert node.right.color == BLACK, "red node with red child"
            if node.left is not self._nil:
                assert not (node.key < node.left.key), "BST order violated"
            if node.right is not self._nil:
                assert not (node.right.key < node.key), "BST order violated"
            left_black = walk(node.left)
            right_black = walk(node.right)
            assert left_black == right_black, "black heights differ"
            return left_black + (0 if node.color == RED else 1)

        walk(self._root)
