import random

import pytest

from joinfd.errors import CsvFormatError, SchemaError
from joinfd.joins import JoinSpec, join_profile
from joinfd.relation import (
    NULL_CODE,
    load_csv,
    loads_csv,
    project,
    take_rows,
    to_csv,
)

from conftest import random_instance


def _select(inst, attr, values):
    """Rows whose `attr` value is among `values`, picked by group id."""
    profile = join_profile(inst, inst, JoinSpec.equi([attr], [attr]))
    values = set(values)
    wanted = {g for g, v in enumerate(profile.values) if v in values}
    return take_rows(inst, [r for r, g in enumerate(profile.left_ids) if g in wanted])


def test_smallest_wellformed_csv():
    inst = loads_csv("a,b\n1,2")
    assert inst.attr_names == ("a", "b")
    assert inst.row_count == 1


def test_null_token_maps_to_null_code():
    inst = loads_csv("a,b\n1,\n,2", null_tokens=[""])
    assert inst.columns[1][0] == NULL_CODE
    assert inst.columns[0][1] == NULL_CODE
    assert inst.decode(0, inst.columns[0][0]) == "1"


def test_custom_null_tokens():
    inst = loads_csv("a\nNA\nx\n", null_tokens=["NA"])
    assert inst.columns[0][0] == NULL_CODE
    assert inst.columns[0][1] != NULL_CODE


def test_four_row_table_dictionary_width():
    inst = loads_csv("X,A\n0,0\n1,0\n1,1\n2,2")
    assert inst.row_count == 4
    assert len(inst.dictionaries[0]) == 3  # three distinct join values


def test_nulls_compare_equal():
    inst = loads_csv("a,b\n,1\n,2\nx,3", null_tokens=[""])
    assert inst.columns[0][0] == inst.columns[0][1] == NULL_CODE


def test_ragged_row_reports_line_number():
    with pytest.raises(CsvFormatError, match="line 3"):
        loads_csv("a,b\n1,2\n1,2,3")


def test_empty_file_rejected():
    with pytest.raises(CsvFormatError, match="empty"):
        loads_csv("")


def test_unreadable_path():
    with pytest.raises(OSError):
        load_csv("/nonexistent/file.csv")


def test_duplicate_header_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        loads_csv("a,a\n1,2")


def test_headerless_names_synthesized():
    inst = loads_csv("1,2,3", header=False)
    assert inst.attr_names == ("A0", "A1", "A2")


def test_project_identity_is_code_equal():
    inst = loads_csv("a,b,c\n1,2,3\n4,5,6")
    assert project(inst, ["a", "b", "c"]) == inst


def test_project_single_column():
    inst = loads_csv("X,A\n0,0\n1,0\n1,1\n2,2")
    p = project(inst, ["X"])
    assert p.row_count == 4
    assert p.attr_names == ("X",)


def test_project_empty_attr_set_keeps_row_count():
    inst = loads_csv("a,b\n1,2\n3,4")
    p = project(inst, [])
    assert p.row_count == 2
    assert p.attr_names == ()


def test_project_unknown_attribute_named_in_error():
    inst = loads_csv("a,b\n1,2")
    with pytest.raises(SchemaError, match="nope"):
        project(inst, ["nope"])


def test_project_composes_as_intersection():
    rng = random.Random(5)
    for _ in range(25):
        inst = random_instance(rng, n_attrs=4)
        outer = ["c0", "c1", "c2"]
        inner = ["c1", "c2"]
        assert project(project(inst, outer), inner) == project(inst, inner)


def test_shared_join_values_of_the_four_row_pair():
    left = loads_csv("X,A\n0,0\n1,0\n1,1\n2,2")
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0")
    lx = {left.decode(0, c) for c in left.columns[0]}
    ry = {right.decode(0, c) for c in right.columns[0]}
    assert lx & ry == {"0", "1", "2"}


def test_select_by_all_values_is_identity():
    inst = loads_csv("a,b\nx,1\ny,2\nx,3")
    assert _select(inst, "a", [("x",), ("y",)]) == inst


def test_select_by_empty_set_drops_everything():
    inst = loads_csv("a,b\nx,1\ny,2")
    assert _select(inst, "a", set()).row_count == 0


def test_select_matching_rows_of_proof_table():
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0")
    picked = _select(right, "Y", [("1",)])
    assert picked.raw_rows() == [("1", "0", "0"), ("1", "1", "1")]


def test_csv_round_trip_is_code_isomorphic():
    rng = random.Random(11)
    for _ in range(20):
        inst = random_instance(rng)
        again = loads_csv(to_csv(inst), name=inst.name)
        assert again.columns == inst.columns
        assert again.dictionaries == inst.dictionaries
        assert again.attr_names == inst.attr_names


def test_round_trip_with_nulls():
    inst = loads_csv("a,b\n,x\ny,\n", null_tokens=[""])
    again = loads_csv(to_csv(inst), null_tokens=[""])
    assert again.columns == inst.columns


def test_row_order_preserved_by_selection():
    inst = loads_csv("a\n3\n1\n2\n1")
    assert [r[0] for r in _select(inst, "a", [("1",), ("2",)]).raw_rows()] == [
        "1",
        "2",
        "1",
    ]
