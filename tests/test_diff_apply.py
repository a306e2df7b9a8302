import pytest

from repro.diff import XidSpace, apply_delta, compute_delta
from repro.diff.delta import Delta, InsertOp, UpdateTextOp
from repro.errors import DeltaApplyError
from repro.xmlstore import parse, serialize
from repro.xmlstore.nodes import ElementNode


def prepared(old_source, new_source):
    old = parse(old_source)
    new = parse(new_source)
    space = XidSpace()
    space.assign_fresh(old.root)
    delta = compute_delta(old, new, space)
    return old, new, delta


class TestReconstruction:
    @pytest.mark.parametrize(
        "old_source,new_source",
        [
            ("<r><a/></r>", "<r><a/><b/></r>"),
            ("<r><a/><b/></r>", "<r><b/></r>"),
            ("<r><a>x</a></r>", "<r><a>y</a></r>"),
            ('<r k="1"><a/></r>', '<r k="2"><c/><a/></r>'),
            (
                "<m><p><t>a</t></p><p><t>b</t></p></m>",
                "<m><p><t>a2</t></p><q/><p><t>b</t></p></m>",
            ),
        ],
    )
    def test_forward_application(self, old_source, new_source):
        old, new, delta = prepared(old_source, new_source)
        rebuilt = apply_delta(old, delta)
        assert serialize(rebuilt) == serialize(new)

    @pytest.mark.parametrize(
        "old_source,new_source",
        [
            ("<r><a/></r>", "<r><a/><b/></r>"),
            ("<r><a/><b/><c/></r>", "<r><c/></r>"),
            ("<r><a>x</a><b>y</b></r>", "<r><a>x2</a></r>"),
        ],
    )
    def test_inverse_application(self, old_source, new_source):
        old, new, delta = prepared(old_source, new_source)
        restored = apply_delta(new, delta.inverted())
        assert serialize(restored) == serialize(old)

    def test_apply_does_not_mutate_input(self):
        old, _, delta = prepared("<r><a/></r>", "<r><a/><b/></r>")
        before = serialize(old)
        apply_delta(old, delta)
        assert serialize(old) == before

    def test_inverse_holds_no_node_of_either_version(self):
        # An archived inverse must not keep a whole version alive through
        # the parent links of shared subtrees.
        _, _, delta = prepared("<r><a/><b>x</b></r>", "<r><b>x</b><c/></r>")
        inverse = delta.inverted()
        assert inverse.inserts and inverse.deletes
        for op in inverse.inserts + inverse.deletes:
            assert op.subtree.parent is None

    def test_double_inversion_is_identity(self):
        old, new, delta = prepared("<r><a>1</a></r>", "<r><a>2</a><b/></r>")
        rebuilt = apply_delta(old, delta.inverted().inverted())
        assert serialize(rebuilt) == serialize(new)


class TestValidation:
    def test_unknown_delete_xid(self):
        old, _, _ = prepared("<r><a/></r>", "<r><a/></r>")
        bogus = Delta()
        from repro.diff.delta import DeleteOp

        orphan = ElementNode("zz")
        orphan.xid = 999
        bogus.deletes.append(
            DeleteOp(xid=999, parent_xid=1, position=0, subtree=orphan)
        )
        with pytest.raises(DeltaApplyError):
            apply_delta(old, bogus)

    def test_unknown_insert_parent(self):
        old, _, _ = prepared("<r/>", "<r/>")
        subtree = ElementNode("n")
        subtree.xid = 50
        bogus = Delta(inserts=[InsertOp(parent_xid=777, position=0, subtree=subtree)])
        with pytest.raises(DeltaApplyError):
            apply_delta(old, bogus)

    def test_insert_position_out_of_range(self):
        old, _, _ = prepared("<r/>", "<r/>")
        subtree = ElementNode("n")
        subtree.xid = 50
        bogus = Delta(
            inserts=[
                InsertOp(parent_xid=old.root.xid, position=5, subtree=subtree)
            ]
        )
        with pytest.raises(DeltaApplyError):
            apply_delta(old, bogus)

    def test_text_update_wrong_base(self):
        old, _, _ = prepared("<r><a>x</a></r>", "<r><a>x</a></r>")
        text_xid = old.root.children[0].children[0].xid
        bogus = Delta(
            text_updates=[
                UpdateTextOp(xid=text_xid, old_text="WRONG", new_text="y")
            ]
        )
        with pytest.raises(DeltaApplyError):
            apply_delta(old, bogus)

    def test_duplicate_xid_insert_rejected(self):
        old, _, _ = prepared("<r><a/></r>", "<r><a/></r>")
        clone = ElementNode("dup")
        clone.xid = old.root.children[0].xid
        bogus = Delta(
            inserts=[InsertOp(parent_xid=old.root.xid, position=0, subtree=clone)]
        )
        with pytest.raises(DeltaApplyError):
            apply_delta(old, bogus)


class TestVersionChains:
    def test_three_version_chain(self):
        v1 = parse("<r><a>1</a></r>")
        space = XidSpace()
        space.assign_fresh(v1.root)
        v2 = parse("<r><a>2</a><b/></r>")
        d12 = compute_delta(v1, v2, space)
        v3 = parse("<r><a>2</a><b><c/></b></r>")
        d23 = compute_delta(v2, v3, space)
        rebuilt3 = apply_delta(apply_delta(v1, d12), d23)
        assert serialize(rebuilt3) == serialize(v3)
        restored1 = apply_delta(
            apply_delta(v3, d23.inverted()), d12.inverted()
        )
        assert serialize(restored1) == serialize(v1)
