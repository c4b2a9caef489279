"""Merkle-tree properties of the dynamic tier's rank tree.

Construction, mutation and randomized checks over
:class:`~repro.dynamic.rank_tree.RankTree`: every leaf is provable at its
own position, and nothing else verifies.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.dynamic.rank_tree import _EMPTY_ROOT, RankTree


def leaves(n: int) -> list[bytes]:
    return [b"leaf-%03d" % i for i in range(n)]


def proves(tree: RankTree, index: int, leaf: bytes) -> bool:
    rank = RankTree.verify_path(tree.root, len(tree), leaf, tree.prove(index))
    return rank == index


class TestConstruction:
    def test_single_leaf(self):
        tree = RankTree([b"only"])
        path = tree.prove(0)
        assert path.steps == ()
        assert RankTree.verify_path(tree.root, 1, b"only", path) == 0
        assert RankTree.verify_path(tree.root, 1, b"other", path) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33])
    def test_all_paths_verify(self, n):
        tree = RankTree(leaves(n))
        for i in range(n):
            assert proves(tree, i, tree.leaf(i))

    def test_empty_tree_root_stable(self):
        assert RankTree().root == RankTree([]).root == _EMPTY_ROOT
        tree = RankTree([b"x"])
        tree.delete(0)
        assert tree.root == _EMPTY_ROOT
        assert RankTree([b""]).root != _EMPTY_ROOT

    def test_path_from_other_tree_rejected(self):
        ours = RankTree(leaves(6))
        theirs = RankTree([b"other-%d" % i for i in range(6)])
        for i in range(6):
            assert RankTree.verify_path(ours.root, 6, ours.leaf(i),
                                        theirs.prove(i)) is None

    def test_root_depends_on_content(self):
        assert RankTree(leaves(4)).root != RankTree(leaves(3) + [b"evil"]).root

    def test_root_depends_on_order(self):
        assert RankTree([b"a", b"b", b"c"]).root != RankTree([b"b", b"a", b"c"]).root

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_wrong_leaf_rejected(self, n):
        tree = RankTree(leaves(n))
        for i in range(n):
            assert RankTree.verify_path(tree.root, n, b"evil", tree.prove(i)) is None

    def test_wrong_position_rejected(self):
        """Leaf i under leaf j's path never verifies, for any i != j."""
        tree = RankTree(leaves(7))
        for i in range(7):
            for j in range(7):
                rank = RankTree.verify_path(tree.root, 7, tree.leaf(i), tree.prove(j))
                assert (rank is not None) == (i == j)


class TestMutation:
    def test_update_changes_root(self):
        tree = RankTree(leaves(5))
        before = tree.root
        tree.modify(3, b"patched")
        assert tree.root != before
        assert proves(tree, 3, b"patched")

    def test_update_equals_fresh_build(self):
        tree = RankTree(leaves(9))
        expected = leaves(9)
        for i in (0, 4, 8):
            tree.modify(i, b"v2-%d" % i)
            expected[i] = b"v2-%d" % i
            assert tree.root == RankTree(expected).root

    def test_insert(self):
        tree = RankTree(leaves(4))
        tree.insert(2, b"wedge")
        assert tree.leaves() == leaves(2) + [b"wedge"] + leaves(4)[2:]
        assert proves(tree, 2, b"wedge")
        assert proves(tree, 3, b"leaf-002")

    def test_append(self):
        tree = RankTree(leaves(3))
        tree.append(b"tail")
        assert len(tree) == 4
        assert proves(tree, 3, b"tail")

    def test_delete(self):
        tree = RankTree(leaves(5))
        tree.delete(1)
        assert tree.leaves() == [b"leaf-000", b"leaf-002", b"leaf-003", b"leaf-004"]
        assert proves(tree, 1, b"leaf-002")

    def test_old_path_invalid_after_mutation(self):
        tree = RankTree(leaves(8))
        old_root, old_path = tree.root, tree.prove(5)
        tree.modify(2, b"changed")
        assert RankTree.verify_path(old_root, 8, b"leaf-005", old_path) == 5
        assert RankTree.verify_path(tree.root, 8, b"leaf-005", old_path) is None


class TestProperties:
    def test_every_leaf_provable(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 70)
            items = [bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 12)))
                     for _ in range(n)]
            tree = RankTree(items)
            for i in range(n):
                assert proves(tree, i, items[i])

    def test_mutations_match_fresh_builds(self):
        rng = random.Random(11)
        tree, mirror = RankTree(), []
        for step in range(120):
            leaf = b"m-%d" % step
            choice = rng.choice(("append", "insert", "modify", "delete"))
            if choice == "append" or not mirror:
                tree.append(leaf)
                mirror.append(leaf)
            elif choice == "insert":
                i = rng.randint(0, len(mirror))
                tree.insert(i, leaf)
                mirror.insert(i, leaf)
            elif choice == "modify":
                i = rng.randrange(len(mirror))
                tree.modify(i, leaf)
                mirror[i] = leaf
            else:
                i = rng.randrange(len(mirror))
                tree.delete(i)
                del mirror[i]
            assert tree.root == RankTree(mirror).root

    def test_path_size(self):
        for n in (1, 2, 3, 8, 9, 100, 1024, 1025):
            tree = RankTree(leaves(n))
            bound = math.ceil(math.log2(n)) if n > 1 else 0
            for i in (0, n // 2, n - 1):
                path = tree.prove(i)
                assert len(path.steps) <= bound
                assert path.wire_size_bytes() == 41 * len(path.steps)
