"""The rank-annotated Merkle tree: position is part of what verifies."""

from __future__ import annotations

import pytest

from repro.dynamic.rank_tree import _EMPTY_ROOT, RankPath, RankTree


def leaves(n: int) -> list[bytes]:
    return [b"leaf-%03d" % i for i in range(n)]


class TestStructure:
    def test_empty_tree(self):
        tree = RankTree()
        assert len(tree) == 0
        assert tree.root == _EMPTY_ROOT

    def test_root_depends_on_every_leaf(self):
        base = RankTree(leaves(5)).root
        for i in range(5):
            mutated = leaves(5)
            mutated[i] = b"evil"
            assert RankTree(mutated).root != base

    def test_root_depends_on_order(self):
        swapped = leaves(4)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        assert RankTree(swapped).root != RankTree(leaves(4)).root

    def test_leaf_vs_node_domain_separation(self):
        """A two-leaf tree's root is never reproducible as a single leaf."""
        tree = RankTree([b"a", b"b"])
        assert RankTree([tree.root]).root != tree.root

    def test_prove_out_of_range(self):
        with pytest.raises(IndexError):
            RankTree(leaves(3)).prove(3)


class TestRankDerivation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 33])
    def test_every_position_proves_its_own_rank(self, n):
        tree = RankTree(leaves(n))
        for i in range(n):
            path = tree.prove(i)
            assert RankTree.verify_path(tree.root, n, tree.leaf(i), path) == i

    def test_neighbors_path_derives_neighbors_rank(self):
        """The index-shift primitive: block i's proof can never pass as
        block j's — the derived rank IS the position."""
        tree = RankTree(leaves(8))
        for i in range(8):
            derived = RankTree.verify_path(tree.root, 8, tree.leaf(i),
                                           tree.prove(i))
            for j in range(8):
                assert (derived == j) == (i == j)

    def test_wrong_leaf_under_right_path_fails(self):
        tree = RankTree(leaves(6))
        path = tree.prove(2)
        assert RankTree.verify_path(tree.root, 6, tree.leaf(3), path) is None

    def test_forged_total_count_fails(self):
        """A truncated (or padded) file cannot reuse old paths: the total
        leaf count is authenticated by the root itself."""
        tree = RankTree(leaves(7))
        path = tree.prove(0)
        for forged_total in (6, 8):
            assert RankTree.verify_path(tree.root, forged_total,
                                        tree.leaf(0), path) is None

    def test_tampered_sibling_hash_fails(self):
        tree = RankTree(leaves(9))
        path = tree.prove(4)
        side, sibling, count = path.steps[0]
        forged = RankPath(steps=(
            (side, bytes([sibling[0] ^ 1]) + sibling[1:], count),
            *path.steps[1:],
        ))
        assert RankTree.verify_path(tree.root, 9, tree.leaf(4), forged) is None

    def test_tampered_sibling_count_fails(self):
        tree = RankTree(leaves(9))
        path = tree.prove(4)
        side, sibling, count = path.steps[-1]
        forged = RankPath(steps=(
            *path.steps[:-1],
            (side, sibling, count + 1),
        ))
        assert RankTree.verify_path(tree.root, 9, tree.leaf(4), forged) is None


class TestMutators:
    """Every mutator must land on the same root as rebuilding from the
    expected leaf list — the offline ledger checker relies on this."""

    def test_modify(self):
        tree = RankTree(leaves(5))
        tree.modify(2, b"patched")
        expected = leaves(5)
        expected[2] = b"patched"
        assert tree.root == RankTree(expected).root

    def test_insert_shifts_ranks(self):
        tree = RankTree(leaves(5))
        tree.insert(1, b"wedge")
        expected = leaves(5)
        expected.insert(1, b"wedge")
        assert tree.root == RankTree(expected).root
        assert RankTree.verify_path(tree.root, 6, b"leaf-001",
                                    tree.prove(2)) == 2

    def test_insert_bounds(self):
        tree = RankTree(leaves(2))
        with pytest.raises(IndexError):
            tree.insert(3, b"x")
        tree.insert(2, b"end")   # == len is allowed (append)
        assert tree.leaf(2) == b"end"

    def test_append(self):
        tree = RankTree(leaves(4))
        tree.append(b"tail")
        assert tree.root == RankTree(leaves(4) + [b"tail"]).root

    def test_delete(self):
        tree = RankTree(leaves(6))
        tree.delete(3)
        expected = leaves(6)
        del expected[3]
        assert tree.root == RankTree(expected).root
        assert len(tree) == 5

    def test_proof_wire_size_is_logarithmic(self):
        small = RankTree(leaves(8)).prove(0).wire_size_bytes()
        large = RankTree(leaves(1024)).prove(0).wire_size_bytes()
        assert large <= small * 4   # 3 vs 10 levels, 41 bytes per step
